"""Registry mapping workload ids to their compiled specs.

Mirrors :mod:`repro.experiments.registry`: a tuple of frozen specs, id
lookup with a helpful unknown-id error, and one entry point —
:func:`run_workload` — that runs a workload's compiled declarative spec
(:mod:`repro.workloads.graphs`) on one SpGEMM engine and returns its
:class:`~repro.workloads.pipeline.WorkloadResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engines.base import Engine
from repro.formats.csr import CSRMatrix

if TYPE_CHECKING:  # annotation only — see repro.workloads.pipeline
    from repro.experiments.runner import ExperimentRunner
from repro.workloads.compiler import CompiledWorkload
from repro.workloads.graphs import compiled_workload
from repro.workloads.pipeline import PipelineBuilder, WorkloadResult


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered workload.

    Attributes:
        workload_id: short id used on the command line ("mcl", "khop").
        title: human-readable description of the pipeline.
        description: what the workload computes and which stages it runs.
        compiled: the workload's compiled declarative spec; it declares
            the parameters and their defaults.
    """

    workload_id: str
    title: str
    description: str
    compiled: CompiledWorkload


#: Every workload, in presentation order (the original five first).
WORKLOADS: tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        "triangles",
        "Triangle counting ((A·A) ⊙ A)",
        "Square the adjacency on the SpGEMM backend, mask by the adjacency, "
        "and count each triangle exactly (one SpGEMM + one host mask).",
        compiled_workload("triangles"),
    ),
    WorkloadSpec(
        "mcl",
        "Markov clustering (expansion / inflation)",
        "Alternate SpGEMM expansion with host inflation, pruning and "
        "column normalisation until the chaos measure converges.",
        compiled_workload("mcl"),
    ),
    WorkloadSpec(
        "khop",
        "k-hop path counting (A^k chain)",
        "Chain k−1 SpGEMMs to count the length-k walks between every "
        "node pair of a simple graph.",
        compiled_workload("khop"),
    ),
    WorkloadSpec(
        "galerkin",
        "Galerkin triple product R·A·P (multigrid coarsening)",
        "Aggregate nodes into a prolongator P, then compute the coarse "
        "operator Pᵀ·A·P as two chained SpGEMMs.",
        compiled_workload("galerkin"),
    ),
    WorkloadSpec(
        "cosine",
        "Cosine-similarity self-join (Â·Âᵀ, thresholded)",
        "L2-normalise rows, multiply by the transpose on the SpGEMM "
        "backend, and keep pairs above the similarity threshold.",
        compiled_workload("cosine"),
    ),
    WorkloadSpec(
        "pagerank",
        "PageRank power iteration (α·M·r + (1−α)/n)",
        "Column-normalise the adjacency, then iterate damped SpGEMM "
        "spreads of the rank column until the update falls below "
        "tolerance.",
        compiled_workload("pagerank"),
    ),
    WorkloadSpec(
        "gnn_sample",
        "GNN neighbourhood sampling (fanout cap + layer propagation)",
        "Cap every node's neighbourhood deterministically, then chain "
        "one propagation SpGEMM per layer over the sampled adjacency.",
        compiled_workload("gnn_sample"),
    ),
    WorkloadSpec(
        "amg_vcycle",
        "AMG V-cycle setup (repeated Galerkin coarsening)",
        "Coarsen the operator level by level — aggregate, transpose, "
        "A·P, R·AP — until it is small enough or the level budget runs "
        "out.",
        compiled_workload("amg_vcycle"),
    ),
    WorkloadSpec(
        "tri_enum",
        "Masked triangle enumeration ((L·L) ⊙ L)",
        "Strict lower triangle of the simple graph, squared on the "
        "backend and masked by itself — every stored entry lists the "
        "triangles through one edge.",
        compiled_workload("tri_enum"),
    ),
    WorkloadSpec(
        "serve_mix",
        "Batched small-SpGEMM serving mix (block partition)",
        "Slice the operand into diagonal blocks, run one small "
        "self-product per block, and gather the results block-diagonally "
        "— the many-small-multiplications regime of a serving tier.",
        compiled_workload("serve_mix"),
    ),
)

_BY_ID = {spec.workload_id: spec for spec in WORKLOADS}


def list_workloads() -> list[str]:
    """Return the registered workload ids in presentation order."""
    return [spec.workload_id for spec in WORKLOADS]


def get_workload(workload_id: str) -> WorkloadSpec:
    """Look up one workload by id; raises ``KeyError`` with suggestions."""
    try:
        return _BY_ID[workload_id]
    except KeyError:
        raise KeyError(
            f"unknown workload {workload_id!r}; known ids: "
            f"{', '.join(list_workloads())}"
        ) from None


def run_workload(workload_id: str, matrix: CSRMatrix, *,
                 engine: Engine | str = "sparch",
                 runner: ExperimentRunner | None = None,
                 fuse: bool = False,
                 **params) -> WorkloadResult:
    """Run one registered workload on ``matrix`` under a SpGEMM engine.

    Args:
        workload_id: one of :func:`list_workloads`.
        matrix: the workload's input matrix (pipeline value ``"A"``).
        engine: the engine every SpGEMM stage runs on — a registry name
            ("sparch", "mkl", ...) or an :class:`~repro.engines.base.Engine`
            instance such as ``SpArchEngine(SpArchConfig(engine="scalar"))``.
        runner: experiment runner that memoises each stage's cost report;
            without one the engine runs directly (see
            :class:`~repro.workloads.pipeline.PipelineBuilder`).
        fuse: collapse adjacent host ops into fused stages (identical
            functional output, fewer host stage records).
        **params: workload parameters, overriding the spec's declared
            defaults; an undeclared name raises ``TypeError``.

    Returns:
        The pipeline's :class:`WorkloadResult`, output matrix included.
    """
    spec = get_workload(workload_id)
    first_input = spec.compiled.graph.inputs[0].name
    pipeline = PipelineBuilder(engine, runner=runner,
                               inputs={first_input: matrix})
    output = spec.compiled.run(pipeline, params=params, fuse=fuse)
    return pipeline.result(spec.workload_id, output)
