"""Differential harness: every engine must match the scalar reference.

The batched backend (:mod:`repro.core.vectorized`, ``"vectorized"``) is
only allowed to be *faster* / *leaner* — every
functional output and every statistic must be exactly the output of the
scalar reference model.  This module locks that contract down over

* a grid of synthetic + rMAT matrices (square and rectangular, with
  explicit-zero products, hub-dominated and uniform),
* all 16 combinations of the four ablation switches,
* merge-tree depths that force multi-round spilling, and
* prefetch buffers both larger (fast path) and smaller (Bélády pressure)
  than the right operand.

Equality is asserted on the result matrix arrays and on the full statistics
surface: cycles, per-category DRAM traffic, counters and derived rates.
"""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest

from repro.core import vectorized as batched_backend
from repro.core.accelerator import SpArch
from repro.core.config import SpArchConfig
from repro.formats.csr import CSRMatrix
from repro.matrices.rmat import RMATConfig, generate_rmat
from repro.matrices.synthetic import random_matrix

#: Every statistic that must match bit for bit between the engines.
COMPARED_STATS = (
    "cycles", "runtime_seconds", "multiplications", "additions", "output_nnz",
    "num_partial_matrices", "num_merge_rounds", "condensed_columns",
    "prefetch_hit_rate", "prefetch_bytes_saved", "comparator_ops",
    "memory_cycles", "compute_cycles", "merge_tree_elements",
    "buffer_element_reads", "scheduler",
)

ABLATION_GRID = list(itertools.product([True, False], repeat=4))


def assert_same_run(reference, other) -> None:
    """Two multiplies agree on the result arrays and every statistic."""
    for field in COMPARED_STATS:
        assert getattr(reference.stats, field) == getattr(other.stats, field), \
            f"stats field {field!r} diverges"
    assert (reference.stats.traffic.by_category()
            == other.stats.traffic.by_category())

    assert reference.matrix.shape == other.matrix.shape
    np.testing.assert_array_equal(reference.matrix.indptr,
                                  other.matrix.indptr)
    np.testing.assert_array_equal(reference.matrix.indices,
                                  other.matrix.indices)
    np.testing.assert_array_equal(reference.matrix.data, other.matrix.data)


def assert_engines_agree(matrix_a: CSRMatrix, matrix_b: CSRMatrix,
                         config: SpArchConfig) -> None:
    """Run the scalar and batched engines on ``A · B`` and compare them."""
    scalar = SpArch(config.replace(engine="scalar")).multiply(matrix_a, matrix_b)
    batched = SpArch(config.replace(engine="vectorized")).multiply(
        matrix_a, matrix_b)
    assert_same_run(scalar, batched)


@pytest.fixture(scope="module")
def grid_matrices() -> dict[str, CSRMatrix]:
    """Small synthetic + rMAT operands covering distinct structures."""
    return {
        "random-200": random_matrix(200, 200, 1400, seed=11),
        "rmat-400-x8": generate_rmat(
            RMATConfig(num_rows=400, edge_factor=8, seed=3)),
        "rmat-uniform-300": generate_rmat(
            RMATConfig(num_rows=300, edge_factor=4,
                       a=0.25, b=0.25, c=0.25, d=0.25, seed=9)),
    }


@pytest.mark.parametrize(
    "pipelined,condensing,huffman,prefetcher", ABLATION_GRID,
    ids=lambda value: "on" if value is True else
        ("off" if value is False else str(value)))
def test_all_ablation_combinations(grid_matrices, pipelined, condensing,
                                   huffman, prefetcher):
    """Engines agree under every ablation combination (Figure 16 walk)."""
    config = SpArchConfig(
        enable_pipelined_merge=pipelined,
        enable_matrix_condensing=condensing,
        enable_huffman_scheduler=huffman,
        enable_row_prefetcher=prefetcher,
        # A shallow tree + small buffers force multi-round spilling and
        # genuine Bélády eviction pressure on these small proxies.
        merge_tree_layers=3,
        prefetch_buffer_lines=48,
        prefetch_line_elements=8,
        lookahead_fifo_elements=256,
    )
    for matrix in grid_matrices.values():
        assert_engines_agree(matrix, matrix, config)


def test_default_table1_configuration(grid_matrices):
    """Engines agree under the full Table I default configuration."""
    for matrix in grid_matrices.values():
        assert_engines_agree(matrix, matrix, SpArchConfig())


def test_rectangular_operands():
    """Engines agree on A · B with distinct rectangular operands."""
    matrix_a = random_matrix(120, 90, 700, seed=5)
    matrix_b = random_matrix(90, 150, 800, seed=6)
    assert_engines_agree(matrix_a, matrix_b, SpArchConfig())
    assert_engines_agree(matrix_a, matrix_b,
                         SpArchConfig(enable_matrix_condensing=False,
                                      merge_tree_layers=2))


def test_merge_tree_depth_sweep(grid_matrices):
    """Engines agree across merge-tree depths (Figure 18 sweep regime)."""
    matrix = grid_matrices["rmat-400-x8"]
    for layers in (2, 4, 6):
        assert_engines_agree(matrix, matrix,
                             SpArchConfig(merge_tree_layers=layers))


def test_prefetch_fast_path_and_pressure(grid_matrices):
    """Engines agree whether or not the right operand fits the row buffer."""
    matrix = grid_matrices["rmat-400-x8"]
    # Everything fits: the eviction-free fast path runs.
    assert_engines_agree(matrix, matrix,
                         SpArchConfig(prefetch_buffer_lines=4096))
    # Nothing fits: constant eviction pressure.
    assert_engines_agree(matrix, matrix,
                         SpArchConfig(prefetch_buffer_lines=8,
                                      prefetch_line_elements=4,
                                      lookahead_fifo_elements=64))


def test_cancelling_products():
    """Engines agree when partial products cancel to explicit zeros."""
    dense = np.zeros((6, 6))
    dense[0, 0], dense[0, 1] = 1.0, -1.0
    dense[1, 0], dense[1, 1] = 2.0, -2.0
    matrix_a = CSRMatrix.from_dense(dense)
    dense_b = np.zeros((6, 6))
    dense_b[0, 2] = 3.0
    dense_b[1, 2] = 3.0  # A[0,:] · B[:,2] == 0 exactly
    dense_b[1, 3] = 5.0
    matrix_b = CSRMatrix.from_dense(dense_b)
    assert_engines_agree(matrix_a, matrix_b, SpArchConfig())
    assert_engines_agree(matrix_a, matrix_b,
                         SpArchConfig(enable_matrix_condensing=False))


@pytest.mark.parametrize(
    "pipelined,condensing,huffman,prefetcher", ABLATION_GRID,
    ids=lambda value: "on" if value is True else
        ("off" if value is False else str(value)))
def test_streaming_tiny_chunks_all_ablations(grid_matrices, pipelined,
                                             condensing, huffman, prefetcher):
    """Band streaming with forced multi-block merges matches the default
    band size under every ablation combination.

    A block size far below the round sizes forces many fold blocks per
    round — the regime where a carry or tie-break bug would surface.  (The
    scalar cross-check of the same grid runs in
    ``test_all_ablation_combinations``.)
    """
    config = SpArchConfig(
        enable_pipelined_merge=pipelined,
        enable_matrix_condensing=condensing,
        enable_huffman_scheduler=huffman,
        enable_row_prefetcher=prefetcher,
        merge_tree_layers=3,
        prefetch_buffer_lines=48,
        prefetch_line_elements=8,
        lookahead_fifo_elements=256,
    )
    matrix = grid_matrices["rmat-400-x8"]
    reference = SpArch(config.replace(engine="vectorized")).multiply(
        matrix, matrix)
    with mock.patch.object(batched_backend, "BLOCK_ELEMENTS", 97):
        streamed = SpArch(config.replace(engine="vectorized")).multiply(
            matrix, matrix)
    assert_same_run(reference, streamed)


def test_scalar_engine_validates_unsorted_streams():
    """The scalar tree refuses an unsorted stream (so does the batched
    tree: ``tests/core/test_streaming_backend.py``)."""
    from repro.hardware.merge_tree import MergeTree

    tree = MergeTree(num_layers=2)
    with pytest.raises(ValueError, match="key-sorted"):
        tree.merge([(np.array([3, 1]), np.array([1.0, 2.0]))])
