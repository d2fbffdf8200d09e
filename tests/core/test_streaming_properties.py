"""Property test: batched output is invariant under the merge block size.

``repro.core.vectorized.BLOCK_ELEMENTS`` is a simulation-host setting — per
the contract in :mod:`repro.core.config` it must never change a result
array, a counter, or a DRAM byte.  This test drives the full accelerator
over random operands and random block sizes (*including* the degenerate
extremes: one element per block, and blocks larger than the whole
problem), on the batched engine, and compares everything against the
scalar engine.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import vectorized
from repro.core.accelerator import SpArch
from repro.core.config import SpArchConfig
from repro.formats.convert import coo_to_csr
from repro.formats.coo import COOMatrix

#: Every statistic that must be invariant (mirrors the integration harness).
COMPARED_STATS = (
    "cycles", "runtime_seconds", "multiplications", "additions", "output_nnz",
    "num_partial_matrices", "num_merge_rounds", "condensed_columns",
    "prefetch_hit_rate", "prefetch_bytes_saved", "comparator_ops",
    "memory_cycles", "compute_cycles", "merge_tree_elements",
    "buffer_element_reads", "scheduler",
)


@st.composite
def csr_pairs(draw, max_dim: int = 14, max_nnz: int = 50):
    """Pairs of small random CSR matrices with compatible shapes."""
    rows_a = draw(st.integers(1, max_dim))
    inner = draw(st.integers(1, max_dim))
    cols_b = draw(st.integers(1, max_dim))

    def build(num_rows, num_cols):
        nnz = draw(st.integers(0, max_nnz))
        rows = draw(st.lists(st.integers(0, num_rows - 1), min_size=nnz,
                             max_size=nnz))
        cols = draw(st.lists(st.integers(0, num_cols - 1), min_size=nnz,
                             max_size=nnz))
        vals = draw(st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False,
                      allow_infinity=False).filter(lambda v: abs(v) > 1e-6),
            min_size=nnz, max_size=nnz))
        coo = COOMatrix(np.array(rows, np.int64), np.array(cols, np.int64),
                        np.array(vals), (num_rows, num_cols))
        return coo_to_csr(coo.canonicalized())

    return build(rows_a, inner), build(inner, cols_b)


#: Block sizes always covering the extremes (1, and ≥ everything).
block_elements = st.one_of(st.just(1), st.integers(2, 50), st.just(10 ** 9))

ablations = st.sampled_from([
    dict(),
    dict(enable_matrix_condensing=False),
    dict(enable_huffman_scheduler=False),
    dict(enable_pipelined_merge=False, enable_row_prefetcher=False),
])


@given(csr_pairs(), block_elements, ablations)
@settings(max_examples=40, deadline=None)
def test_streaming_invariant_under_block_sizes(pair, block, features):
    matrix_a, matrix_b = pair
    config = SpArchConfig(merge_tree_layers=2, prefetch_buffer_lines=8,
                          prefetch_line_elements=4,
                          lookahead_fifo_elements=32, **features)
    reference = SpArch(config.replace(engine="scalar")).multiply(
        matrix_a, matrix_b)
    with mock.patch.object(vectorized, "BLOCK_ELEMENTS", block):
        streamed = SpArch(config.replace(engine="vectorized")).multiply(
            matrix_a, matrix_b)

    for field in COMPARED_STATS:
        assert (getattr(reference.stats, field)
                == getattr(streamed.stats, field)), field
    assert (reference.stats.traffic.by_category()
            == streamed.stats.traffic.by_category())
    np.testing.assert_array_equal(reference.matrix.indptr,
                                  streamed.matrix.indptr)
    np.testing.assert_array_equal(reference.matrix.indices,
                                  streamed.matrix.indices)
    np.testing.assert_array_equal(reference.matrix.data,
                                  streamed.matrix.data)
