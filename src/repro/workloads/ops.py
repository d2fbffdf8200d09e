"""Host-side stage operations for workload pipelines.

Every non-SpGEMM stage of a workload pipeline is a *host op*: a named pure
function from ``scipy.sparse`` CSR operands (plus scalar keyword parameters)
to one CSR result.  The ops registered here are the element-wise /
normalise / prune / mask vocabulary the registered workloads are written in
(:mod:`repro.workloads.graphs`); new workloads can extend the vocabulary
with :func:`register_host_op`.

Host ops run on the host processor, not on the accelerator, so pipeline
stage records charge them zero cycles / DRAM traffic / energy — exactly the
accounting the end-to-end applications used before the workloads subsystem
existed (the apps timed only their SpGEMM kernels).  Ops must never mutate
their operands: pipeline values are shared between stages.

The sparse math helpers (:func:`column_normalize`, :func:`inflate`,
:func:`prune`, :func:`chaos`) implement the ``mcl`` workload's host stages
and its convergence probe, which :mod:`repro.apps.markov_clustering` runs.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Sequence

import numpy as np
import scipy.sparse as sp

#: A host op: ``fn(*operands, **params) -> sparse matrix``.
HostOp = Callable[..., sp.spmatrix]

#: Registered host ops by name.
HOST_OPS: dict[str, HostOp] = {}


def register_host_op(name: str) -> Callable[[HostOp], HostOp]:
    """Class-level decorator registering a host op under ``name``."""
    def decorator(fn: HostOp) -> HostOp:
        if name in HOST_OPS:
            raise ValueError(f"host op {name!r} is already registered")
        HOST_OPS[name] = fn
        return fn
    return decorator


def get_host_op(name: str, *, stage: str | None = None) -> HostOp:
    """Look up one host op by name.

    Unknown names raise ``KeyError`` listing the registered vocabulary;
    when ``stage`` is given the message leads with the failing stage, so
    pipeline errors point at the exact node.
    """
    try:
        return HOST_OPS[name]
    except KeyError:
        context = f"stage {stage!r}: " if stage else ""
        raise KeyError(
            f"{context}unknown host op {name!r}; known ops: "
            f"{', '.join(sorted(HOST_OPS))}"
        ) from None


def apply_host_op(name: str, operands: Sequence[sp.spmatrix],
                  params: dict | None = None, *,
                  stage: str | None = None) -> sp.spmatrix:
    """Apply one registered host op with stage-named diagnostics.

    Operand-count and parameter-name mismatches are caught against the
    op's signature *before* the call, so a bad stage raises a ``TypeError``
    naming the stage, the op and its real signature — instead of a bare
    Python traceback from somewhere inside the op.
    """
    fn = get_host_op(name, stage=stage)
    params = params or {}
    try:
        inspect.signature(fn).bind(*operands, **params)
    except TypeError as exc:
        context = f"stage {stage!r}: " if stage else ""
        raise TypeError(
            f"{context}host op {name!r} cannot take {len(operands)} "
            f"operand(s) with params ({', '.join(params) or 'none'}): "
            f"{exc}; signature is {name}{inspect.signature(fn)}"
        ) from None
    return fn(*operands, **params)


# ----------------------------------------------------------------------
# Shared sparse math (also used by repro.apps)
# ----------------------------------------------------------------------
def column_normalize(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Scale every column to sum to one (columns with no mass are left empty)."""
    sums = np.asarray(matrix.sum(axis=0)).ravel()
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    return (matrix @ sp.diags(scale)).tocsr()


def chaos(matrix: sp.csr_matrix) -> float:
    """MCL convergence measure: max over columns of (max entry − sum of squares)."""
    csc = matrix.tocsc()
    value = 0.0
    for j in range(csc.shape[1]):
        column = csc.data[csc.indptr[j]:csc.indptr[j + 1]]
        if len(column) == 0:
            continue
        value = max(value, float(column.max() - np.square(column).sum()))
    return value


def triangles_from_masked(masked: sp.spmatrix) -> tuple[np.ndarray, int]:
    """Exact triangle counts from the masked square ``(A·A) ⊙ A``.

    Every diagonal entry of ``A²·A`` — equivalently every row sum of the
    masked product — counts each triangle through that node twice, and each
    triangle touches three nodes.  The row sums of a binary adjacency
    product are integers represented exactly in float64, so the count is
    computed on integers (round each per-node half, then sum) instead of
    ``round(sum / 3)`` silently absorbing drift.

    Returns:
        ``(per_node, total)`` — float per-node triangle counts (halved row
        sums, as the apps report them) and the exact global total.

    Raises:
        ArithmeticError: if the per-node sum is not divisible by 3, i.e. the
            masked product is not the triangle structure of a simple graph.
    """
    per_node_twice = np.asarray(masked.sum(axis=1)).ravel()
    halves = np.rint(per_node_twice / 2.0).astype(np.int64)
    total = int(halves.sum())
    if total % 3 != 0:
        raise ArithmeticError(
            f"per-node triangle sum {total} is not divisible by 3; the input "
            "is not the masked square of a simple undirected graph"
        )
    return per_node_twice / 2.0, total // 3


# ----------------------------------------------------------------------
# Registered ops
# ----------------------------------------------------------------------
@register_host_op("mask")
def mask(matrix: sp.csr_matrix, pattern: sp.csr_matrix) -> sp.spmatrix:
    """Element-wise (Hadamard) product — masks ``matrix`` by ``pattern``."""
    return matrix.multiply(pattern)


@register_host_op("normalize_columns")
def normalize_columns(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Column-stochastic rescale (see :func:`column_normalize`)."""
    return column_normalize(matrix)


@register_host_op("normalize_rows")
def normalize_rows(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Scale every row to unit L2 norm (empty rows stay empty)."""
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return (sp.diags(scale) @ matrix).tocsr()


@register_host_op("inflate")
def inflate(matrix: sp.csr_matrix, *, power: float) -> sp.csr_matrix:
    """Element-wise power followed by column re-normalisation (MCL inflation)."""
    inflated = matrix.copy()
    inflated.data = np.power(inflated.data, power)
    return column_normalize(inflated)


@register_host_op("prune")
def prune(matrix: sp.csr_matrix, *, threshold: float) -> sp.csr_matrix:
    """Drop entries below ``threshold`` (keeps the matrix sparse)."""
    pruned = matrix.copy()
    pruned.data[pruned.data < threshold] = 0.0
    pruned.eliminate_zeros()
    return pruned


@register_host_op("binarize")
def binarize(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Replace every stored nonzero with 1.0."""
    binary = matrix.copy().tocsr()
    binary.eliminate_zeros()
    binary.data[:] = 1.0
    return binary


@register_host_op("transpose")
def transpose(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Matrix transpose."""
    return matrix.T.tocsr()


@register_host_op("simple_graph")
def simple_graph(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Coerce to a simple undirected graph: symmetric, zero-diagonal, binary."""
    adjacency = matrix + matrix.T
    adjacency.setdiag(0)
    adjacency.eliminate_zeros()
    adjacency.data[:] = 1.0
    return adjacency.tocsr()


@register_host_op("mcl_setup")
def mcl_setup(matrix: sp.csr_matrix, *, add_self_loops: bool = True
              ) -> sp.csr_matrix:
    """MCL input transform: |A| + |A|ᵀ (+ I), column-normalised."""
    current = abs(matrix) + abs(matrix).T
    if add_self_loops:
        current = current + sp.identity(matrix.shape[0], format="csr")
    return column_normalize(current.tocsr())


@register_host_op("aggregation")
def aggregation(matrix: sp.csr_matrix, *, group_size: int = 4) -> sp.csr_matrix:
    """Piecewise-constant prolongator P for Galerkin coarsening.

    Nodes are aggregated into contiguous groups of ``group_size``; column
    *j* of P has a unit entry for every node of aggregate *j* — the simplest
    algebraic-multigrid aggregation, enough to give the triple product
    R·A·P its real sparsity structure.
    """
    if group_size < 1:
        raise ValueError(f"group_size must be at least 1, got {group_size}")
    num_rows = matrix.shape[0]
    num_groups = (num_rows + group_size - 1) // group_size
    rows = np.arange(num_rows, dtype=np.int64)
    cols = rows // group_size
    vals = np.ones(num_rows)
    return sp.csr_matrix((vals, (rows, cols)), shape=(num_rows, num_groups))


@register_host_op("tril")
def tril(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Strictly lower-triangular part (the L of the L·L ⊙ L triangle
    enumeration — each triangle's vertices are visited in one order)."""
    return sp.tril(matrix, k=-1).tocsr()


@register_host_op("sample_neighbors")
def sample_neighbors(matrix: sp.csr_matrix, *, fanout: int
                     ) -> sp.csr_matrix:
    """Deterministic neighbourhood sampling: keep ``fanout`` entries per row.

    GNN mini-batch pipelines cap each node's neighbourhood before
    aggregating.  This variant is deterministic — keep the ``fanout``
    largest-|value| entries of every row, ties broken toward the lowest
    column — so compiled runs are reproducible across backends and cache
    fingerprints are stable (no RNG state in the pipeline).
    """
    if fanout < 1:
        raise ValueError(f"fanout must be at least 1, got {fanout}")
    sampled = matrix.tocsr().copy()
    sampled.eliminate_zeros()
    keep = np.zeros(sampled.nnz, dtype=bool)
    for row in range(sampled.shape[0]):
        start, end = sampled.indptr[row], sampled.indptr[row + 1]
        degree = end - start
        if degree <= fanout:
            keep[start:end] = True
            continue
        magnitudes = np.abs(sampled.data[start:end])
        # Sort by (-|value|, column): stable top-fanout with low-column
        # tie-breaking, independent of scipy's internal entry order.
        ranking = np.lexsort((sampled.indices[start:end], -magnitudes))
        keep[start + ranking[:fanout]] = True
    sampled.data[~keep] = 0.0
    sampled.eliminate_zeros()
    return sampled


@register_host_op("damp")
def damp(matrix: sp.csr_matrix, base: sp.csr_matrix, *,
         alpha: float = 0.85) -> sp.csr_matrix:
    """PageRank damping: ``alpha·matrix + (1 − alpha)·base``."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return (alpha * matrix + (1.0 - alpha) * base).tocsr()


@register_host_op("uniform_column")
def uniform_column(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """The uniform distribution over ``matrix``'s rows, as an n×1 column."""
    num_rows = matrix.shape[0]
    vals = np.full(num_rows, 1.0 / num_rows)
    rows = np.arange(num_rows, dtype=np.int64)
    cols = np.zeros(num_rows, dtype=np.int64)
    return sp.csr_matrix((vals, (rows, cols)), shape=(num_rows, 1))


@register_host_op("extract_block")
def extract_block(matrix: sp.csr_matrix, *, index: int, count: int
                  ) -> sp.csr_matrix:
    """Diagonal block ``index`` of a ``count``-way contiguous partition.

    The serving-mix workload slices one operand into ``count`` square
    diagonal blocks and runs one small SpGEMM per block — the many-small-
    multiplications regime a batched serving tier sees.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(f"index must be in [0, {count}), got {index}")
    num_rows = matrix.shape[0]
    start = index * num_rows // count
    end = (index + 1) * num_rows // count
    return matrix.tocsr()[start:end, start:end].tocsr()


@register_host_op("stack_blocks")
def stack_blocks(*blocks: sp.csr_matrix) -> sp.csr_matrix:
    """Block-diagonal stack of every operand (serving-mix gather)."""
    if not blocks:
        raise ValueError("stack_blocks needs at least one block")
    return sp.block_diag(blocks, format="csr")
