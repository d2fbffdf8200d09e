"""Application kernels built on top of the SpGEMM simulator.

The paper's introduction motivates SpGEMM with graph analytics and sparse
machine-learning workloads.  This subpackage implements two of them as
library functions whose heavy kernel runs through any SpGEMM engine — the
SpArch simulator by default — and returns both the application result and
the accumulated accelerator statistics:

* :mod:`repro.apps.triangles` — triangle counting via ``trace(A³)/6``.
* :mod:`repro.apps.markov_clustering` — Markov clustering (MCL), whose
  expansion step is a repeated sparse matrix self-product.

Each is one :func:`~repro.workloads.registry.run_workload` call on its
registered compiled spec plus the application-level interpretation
(triangle counts, cluster extraction) of the resulting
:class:`~repro.workloads.pipeline.WorkloadResult`.
"""

from repro.apps.markov_clustering import MarkovClusteringResult, markov_clustering
from repro.apps.triangles import TriangleCountResult, count_triangles

__all__ = [
    "count_triangles",
    "TriangleCountResult",
    "markov_clustering",
    "MarkovClusteringResult",
]
