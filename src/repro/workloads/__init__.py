"""Multi-stage SpGEMM workload pipelines.

The paper motivates SpArch with end-to-end applications — triangle
counting, Markov clustering — that chain many SpGEMMs.  This subpackage is
the subsystem those applications (and every future scenario sweep) plug
into.  Every workload is a compiled declarative spec, and
:func:`~repro.workloads.registry.run_workload` is the one way to run it:

* :mod:`repro.workloads.pipeline` — the stage DAG: SpGEMM stages dispatched
  to the SpArch simulator or any baseline, host stages for element-wise
  work, per-stage cost records, and a define-by-run builder.
* :mod:`repro.workloads.ops` — the host-op vocabulary (mask, normalise,
  inflate, prune, transpose, aggregation, ...), extensible via
  :func:`~repro.workloads.ops.register_host_op`.
* :mod:`repro.workloads.compiler` — the workload compiler: declarative
  graph specs (JSON/YAML stage graphs or the tiny expression language)
  parsed into a typed IR, shape/sparsity-checked with stage-named
  diagnostics, scheduled deterministically, optionally host-op-fused, and
  lowered onto the pipeline builder.
* :mod:`repro.workloads.graphs` — every registered workload's compiled
  spec (triangles, mcl, khop, galerkin, cosine, pagerank, gnn_sample,
  amg_vcycle, tri_enum and serve_mix).
* :mod:`repro.workloads.probes` — annotation and loop-stop probes
  compiled specs record workload-level scalars with.
* :mod:`repro.workloads.registry` — frozen specs, id lookup and
  :func:`~repro.workloads.registry.run_workload`.

Run ``python -m repro.workloads --list`` to discover the registered
workloads, and ``python -m repro.experiments workloads`` for the end-to-end
SpArch-vs-baselines comparison sweep.
"""

from repro.workloads.compiler import (
    CompiledWorkload,
    SpecError,
    compile_expression,
    compile_graph,
    compile_workload,
    load_spec,
)
from repro.workloads.graphs import compiled_workload
from repro.workloads.ops import (
    HOST_OPS,
    apply_host_op,
    get_host_op,
    register_host_op,
    triangles_from_masked,
)
from repro.workloads.pipeline import (
    SPGEMM_KIND,
    PipelineBuilder,
    StageResult,
    WorkloadResult,
)
from repro.workloads.registry import (
    WORKLOADS,
    WorkloadSpec,
    get_workload,
    list_workloads,
    run_workload,
)

__all__ = [
    "SPGEMM_KIND",
    "HOST_OPS",
    "CompiledWorkload",
    "PipelineBuilder",
    "SpecError",
    "StageResult",
    "WorkloadResult",
    "WorkloadSpec",
    "WORKLOADS",
    "apply_host_op",
    "compile_expression",
    "compile_graph",
    "compile_workload",
    "compiled_workload",
    "get_host_op",
    "get_workload",
    "list_workloads",
    "load_spec",
    "register_host_op",
    "run_workload",
    "triangles_from_masked",
]
