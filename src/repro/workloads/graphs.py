"""The registered workloads' declarative graph specs.

Every workload in the registry is a compiled spec, and the spec is the
only form it has.  Straight-line pipelines use the expression language;
workloads with loops, repeats or threaded chains use the JSON stage-graph
form — together the registry exercises every front end and every IR node
kind.

The original five (pinned to golden payloads in
``tests/workloads/test_compiler_parity.py``):

* ``triangles`` — ``(A·A) ⊙ A`` with optional simple-graph normalisation.
* ``mcl``       — expansion chain + inflate/prune/normalise loop with the
                  chaos stop probe.
* ``khop``      — the ``A^k`` power chain.
* ``galerkin``  — the ``R·A·P`` triple product.
* ``cosine``    — thresholded ``Â·Âᵀ`` similarity self-join.

Five more families (scipy-golden-tested in
``tests/workloads/test_new_workloads.py``):

* ``pagerank``   — power iteration ``r ← α·M·r + (1−α)/n`` with a
                   ``delta_max`` convergence stop.
* ``gnn_sample`` — GNN neighbourhood sampling: deterministic per-row
                   fanout capping, then ``layers`` right-threaded
                   propagation SpGEMMs.
* ``amg_vcycle`` — repeated Galerkin coarsening until the operator is
                   small enough (a full V-cycle's setup sweep).
* ``tri_enum``   — masked triangle enumeration on the strict lower
                   triangle (``(L·L) ⊙ L`` lists each triangle once).
* ``serve_mix``  — a batched small-SpGEMM serving mix: block-partition,
                   one product per block, block-diagonal gather.
"""

from __future__ import annotations

from repro.workloads.compiler import (
    CompiledWorkload,
    compile_expression,
    compile_graph,
)

__all__ = ["COMPILED", "EXPRESSION_SOURCES", "GRAPH_SOURCES",
           "compiled_workload"]

#: Expression-language sources (straight-line pipelines).
EXPRESSION_SOURCES: dict[str, str] = {
    "triangles": """
        workload triangles
        input A square
        param normalize = true
        adjacency = simple_graph(A) when normalize else A
        a_squared = adjacency · adjacency
        masked = a_squared ⊙ adjacency
        annotate triangles = triangles_total(masked)
        annotate wedges = wedges(adjacency)
        output masked
    """,
    "khop": """
        workload khop
        input A square
        param k = 3 min 2
        param normalize = true
        adjacency = simple_graph(A) when normalize else A
        power = adjacency ^ k
        annotate k = param k
        annotate total_walks = matrix_sum(power)
        output power
    """,
    "galerkin": """
        workload galerkin
        input A square
        param group_size = 4 min 1
        prolongator = aggregation(A, group_size=group_size)
        restriction = prolongator'
        AP = A · prolongator
        RAP = restriction · AP
        annotate coarse_rows = rows(RAP)
        annotate coarse_nnz = nnz(RAP)
        output RAP
    """,
    "cosine": """
        workload cosine
        input A
        param threshold = 0.2
        row_normalized = normalize_rows(A)
        transposed = row_normalized'
        similarity = row_normalized · transposed
        thresholded = prune(similarity, threshold=threshold)
        annotate similar_pairs = off_diagonal_pairs(thresholded)
        output thresholded
    """,
    "tri_enum": """
        workload tri_enum
        input A square
        lower = tril(simple_graph(A))
        wedge = lower · lower
        tri = wedge ⊙ lower
        annotate triangles = matrix_sum(tri)
        annotate edges = nnz(lower)
        output tri
    """,
}

#: JSON stage-graph sources (loops, repeats, threaded chains).
GRAPH_SOURCES: dict[str, dict] = {
    "mcl": {
        "workload": "mcl",
        "inputs": [{"name": "A", "square": True}],
        "params": [
            {"name": "expansion", "default": 2, "min": 2},
            {"name": "inflation", "default": 2.0, "above": 1},
            {"name": "prune_threshold", "default": 1e-4},
            {"name": "max_iterations", "default": 30},
            {"name": "tolerance", "default": 1e-6},
            {"name": "add_self_loops", "default": True},
        ],
        "nodes": [
            {"stage": "setup", "op": "mcl_setup", "inputs": ["A"],
             "params": {"add_self_loops": {"param": "add_self_loops"}}},
            {"loop": {
                "var": "current",
                "init": "setup",
                "counter": "i",
                "max_iterations": {"param": "max_iterations"},
                "update": "next",
                "stop": {"probe": "chaos",
                         "tolerance": {"param": "tolerance"}},
                "iterations_key": "iterations",
                "converged_key": "converged",
                "body": [
                    {"chain": "expand[{i}.{step}]", "first": "current",
                     "fixed": "current",
                     "count": {"param": "expansion", "offset": -1},
                     "bind": "expanded"},
                    {"stage": "inflate[{i}]", "op": "inflate",
                     "inputs": ["expanded"],
                     "params": {"power": {"param": "inflation"}},
                     "bind": "inflated"},
                    {"stage": "prune[{i}]", "op": "prune",
                     "inputs": ["inflated"],
                     "params": {"threshold": {"param": "prune_threshold"}},
                     "bind": "pruned"},
                    {"stage": "normalize[{i}]", "op": "normalize_columns",
                     "inputs": ["pruned"], "bind": "next"},
                ],
            }},
        ],
        "output": "current",
    },
    "pagerank": {
        "workload": "pagerank",
        "inputs": [{"name": "A", "square": True}],
        "params": [
            {"name": "alpha", "default": 0.85, "above": 0},
            {"name": "max_iterations", "default": 50, "min": 1},
            {"name": "tolerance", "default": 1e-8},
        ],
        "nodes": [
            {"stage": "adjacency", "op": "simple_graph", "inputs": ["A"]},
            {"stage": "stochastic", "op": "normalize_columns",
             "inputs": ["adjacency"]},
            {"stage": "seed", "op": "uniform_column",
             "inputs": ["stochastic"]},
            {"loop": {
                "var": "rank",
                "init": "seed",
                "counter": "t",
                "max_iterations": {"param": "max_iterations"},
                "update": "next",
                "stop": {"probe": "delta_max",
                         "tolerance": {"param": "tolerance"}},
                "iterations_key": "iterations",
                "converged_key": "converged",
                "body": [
                    {"stage": "spread[{t}]", "op": "spgemm",
                     "inputs": ["stochastic", "rank"], "bind": "spread"},
                    {"stage": "damp[{t}]", "op": "damp",
                     "inputs": ["spread", "seed"],
                     "params": {"alpha": {"param": "alpha"}},
                     "bind": "next"},
                ],
            }},
            {"annotate": "rank_sum", "probe": "matrix_sum", "of": "rank"},
        ],
        "output": "rank",
    },
    "gnn_sample": {
        "workload": "gnn_sample",
        "inputs": [{"name": "A", "square": True}],
        "params": [
            {"name": "fanout", "default": 3, "min": 1},
            {"name": "layers", "default": 2, "min": 1},
        ],
        "nodes": [
            {"stage": "adjacency", "op": "simple_graph", "inputs": ["A"]},
            {"stage": "sampled", "op": "sample_neighbors",
             "inputs": ["adjacency"],
             "params": {"fanout": {"param": "fanout"}}},
            {"stage": "features", "op": "normalize_rows", "inputs": ["A"]},
            {"chain": "hop[{step}]", "first": "features",
             "fixed": "sampled", "count": {"param": "layers"},
             "bind": "embedded", "thread": "right", "start": 1},
            {"annotate": "sampled_edges", "probe": "nnz", "of": "sampled"},
            {"annotate": "embedding_nnz", "probe": "nnz",
             "of": "embedded"},
        ],
        "output": "embedded",
    },
    "amg_vcycle": {
        "workload": "amg_vcycle",
        "inputs": [{"name": "A", "square": True}],
        "params": [
            {"name": "group_size", "default": 4, "min": 1},
            {"name": "max_levels", "default": 3, "min": 1},
            {"name": "coarse_rows", "default": 16, "min": 1},
        ],
        "nodes": [
            {"loop": {
                "var": "operator",
                "init": "A",
                "counter": "l",
                "max_iterations": {"param": "max_levels"},
                "update": "coarse",
                "stop": {"probe": "rows_below",
                         "tolerance": {"param": "coarse_rows"}},
                "iterations_key": "levels",
                "converged_key": "reached_coarse",
                "body": [
                    {"stage": "P[{l}]", "op": "aggregation",
                     "inputs": ["operator"],
                     "params": {"group_size": {"param": "group_size"}},
                     "bind": "P"},
                    {"stage": "R[{l}]", "op": "transpose",
                     "inputs": ["P"], "bind": "R"},
                    {"stage": "AP[{l}]", "op": "spgemm",
                     "inputs": ["operator", "P"], "bind": "AP"},
                    {"stage": "RAP[{l}]", "op": "spgemm",
                     "inputs": ["R", "AP"], "bind": "coarse"},
                ],
            }},
            {"annotate": "coarse_rows", "probe": "rows", "of": "operator"},
            {"annotate": "coarse_nnz", "probe": "nnz", "of": "operator"},
        ],
        "output": "operator",
    },
    "serve_mix": {
        "workload": "serve_mix",
        "inputs": [{"name": "A", "square": True}],
        "params": [
            {"name": "batch", "default": 4, "min": 1},
        ],
        "nodes": [
            {"repeat": {
                "counter": "j",
                "count": {"param": "batch"},
                "body": [
                    {"stage": "tile[{j}]", "op": "extract_block",
                     "inputs": ["A"],
                     "params": {"index": {"counter": "j"},
                                "count": {"param": "batch"}}},
                    {"stage": "product[{j}]", "op": "spgemm",
                     "inputs": ["tile[{j}]", "tile[{j}]"]},
                ],
            }},
            {"stage": "stacked", "op": "stack_blocks",
             "inputs": [{"all": "product[{j}]",
                         "count": {"param": "batch"}}]},
            {"annotate": "batches", "param": "batch"},
            {"annotate": "stacked_nnz", "probe": "nnz", "of": "stacked"},
        ],
        "output": "stacked",
    },
}


def _compile_all() -> dict[str, CompiledWorkload]:
    compiled = {}
    for workload_id, source in EXPRESSION_SOURCES.items():
        compiled[workload_id] = compile_expression(source)
    for workload_id, payload in GRAPH_SOURCES.items():
        compiled[workload_id] = compile_graph(payload)
    for workload_id, workload in compiled.items():
        assert workload.name == workload_id, \
            f"spec {workload_id!r} declares workload {workload.name!r}"
    return compiled


#: Every registered workload's compiled spec, by id.
COMPILED: dict[str, CompiledWorkload] = _compile_all()


def compiled_workload(workload_id: str) -> CompiledWorkload:
    """The compiled spec of one registered workload."""
    try:
        return COMPILED[workload_id]
    except KeyError:
        raise KeyError(
            f"no compiled spec for workload {workload_id!r}; compiled "
            f"specs: {', '.join(sorted(COMPILED))}"
        ) from None
