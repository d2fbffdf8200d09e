"""Triangle counting with the SpGEMM kernel on the simulated accelerator.

For an undirected graph with (symmetric, zero-diagonal, binary) adjacency
matrix A, the number of triangles is ``trace(A³) / 6``; computing it as
``sum((A·A) ⊙ A) / 6`` needs one SpGEMM plus an element-wise masked sum,
which is the formulation the paper's citation (Azad, Buluç, Gilbert 2015)
uses and the reason triangle counting appears in the SpGEMM motivation.

The computation itself is the registered ``triangles`` workload
(:mod:`repro.workloads.graphs`); this module runs it with
:func:`~repro.workloads.registry.run_workload` and derives the per-node
counts from its masked output.  The global count uses an exact integer
path: each per-node half is rounded to an integer and the sum is asserted
divisible by 3, instead of ``round(sum / 3)`` silently absorbing drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.stats import SimulationStats
from repro.engines.base import Engine
from repro.experiments.runner import ExperimentRunner
from repro.formats.convert import from_scipy, to_scipy
from repro.formats.csr import CSRMatrix
from repro.workloads.ops import simple_graph, triangles_from_masked
from repro.workloads.pipeline import WorkloadResult
from repro.workloads.registry import run_workload


@dataclass
class TriangleCountResult:
    """Outcome of one triangle-counting run.

    Attributes:
        triangles: number of triangles in the graph.
        per_node_triangles: triangles incident to each node (length =
            number of nodes).
        wedges: number of length-2 paths (open or closed) in the graph.
        spgemm_stats: simulator statistics of the A·A kernel (``None`` on
            a baseline engine; ``workload`` carries its cost report).
        workload: per-stage record of the underlying pipeline execution.
    """

    triangles: int
    per_node_triangles: np.ndarray
    wedges: int
    spgemm_stats: SimulationStats | None
    workload: WorkloadResult | None = field(default=None, compare=False,
                                            repr=False)

    @property
    def clustering_coefficient(self) -> float:
        """Global clustering coefficient: 3·triangles / wedges."""
        return 3.0 * self.triangles / self.wedges if self.wedges else 0.0


def normalize_adjacency(graph: CSRMatrix) -> CSRMatrix:
    """Return a symmetric, zero-diagonal, binary copy of ``graph``.

    Triangle counting is defined on simple undirected graphs; arbitrary
    sparse matrices (directed, weighted, with self loops) are coerced first.
    """
    return from_scipy(simple_graph(to_scipy(graph)))


def count_triangles(graph: CSRMatrix, *, engine: Engine | str = "sparch",
                    runner: ExperimentRunner | None = None,
                    assume_normalized: bool = False) -> TriangleCountResult:
    """Count the triangles of ``graph`` using the accelerator for the SpGEMM.

    Args:
        graph: graph adjacency matrix (any sparse square matrix; it is
            symmetrised and binarised unless ``assume_normalized``).
        engine: SpGEMM engine, a registry name or an instance; the SpArch
            simulator under Table I by default.
        runner: when given, the A·A stage's statistics are memoised through
            the experiment runner's fingerprint cache instead of running
            the engine directly.
        assume_normalized: skip :func:`normalize_adjacency` when the caller
            already provides a symmetric binary zero-diagonal matrix.

    Returns:
        :class:`TriangleCountResult` with the global count, the per-node
        counts, and the simulator statistics of the A·A product.
    """
    workload = run_workload("triangles", graph, engine=engine, runner=runner,
                            normalize=not assume_normalized)
    per_node, triangles = triangles_from_masked(to_scipy(workload.output))
    return TriangleCountResult(
        triangles=triangles,
        per_node_triangles=per_node,
        wedges=int(workload.annotations["wedges"]),
        spgemm_stats=workload.spgemm_stages[0].stats,
        workload=workload,
    )
