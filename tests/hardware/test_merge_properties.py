"""Property-based tests for the merge tree and the zero eliminator.

Hypothesis drives both merge-tree backends with arbitrary sorted streams and
whole SpGEMM executions with arbitrary sparse operands, asserting the
invariants the datapath promises:

* the merged stream equals the scipy ``A @ B`` contribution,
* output keys are strictly increasing (sorted and duplicate-free),
* no explicit zeros survive the eliminator.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.core.accelerator import SpArch
from repro.core.config import SpArchConfig
from repro.formats.csr import CSRMatrix
from repro.hardware.merge_tree import MergeTree
from repro.core.vectorized import VectorizedMergeTree
from repro.hardware.zero_eliminator import eliminate_zeros

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

_values = st.floats(min_value=-8.0, max_value=8.0,
                    allow_nan=False, allow_infinity=False)


@st.composite
def sorted_streams(draw):
    """A list of up to 8 key-sorted (keys, values) streams."""
    num_streams = draw(st.integers(min_value=0, max_value=8))
    streams = []
    for _ in range(num_streams):
        length = draw(st.integers(min_value=0, max_value=24))
        keys = sorted(draw(st.lists(st.integers(min_value=0, max_value=40),
                                    min_size=length, max_size=length)))
        values = draw(st.lists(_values, min_size=length, max_size=length))
        streams.append((np.array(keys, dtype=np.int64), np.array(values)))
    return streams


@st.composite
def sparse_matrices(draw, max_dim=24, max_nnz=60):
    """A small random CSR matrix (possibly empty)."""
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    nnz = draw(st.integers(min_value=0, max_value=max_nnz))
    entries = draw(st.lists(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                  _values.filter(lambda v: v != 0.0)),
        min_size=nnz, max_size=nnz))
    dense = np.zeros((rows, cols))
    for r, c, v in entries:
        dense[r, c] = v
    return CSRMatrix.from_dense(dense)


# ----------------------------------------------------------------------
# Merge tree properties (both backends)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("tree_class", [MergeTree, VectorizedMergeTree])
@given(streams=sorted_streams())
@settings(max_examples=60, deadline=None)
def test_merge_output_is_folded_sorted_and_zero_free(tree_class, streams):
    tree = tree_class(num_layers=3, merger_width=4, chunk_size=2)
    out_keys, out_vals = tree.merge(streams)

    # Sorted with no duplicates.
    assert np.all(np.diff(out_keys) > 0)
    # No explicit zeros.
    assert np.all(out_vals != 0.0)
    # Values equal the per-key sums of the inputs (up to fp associativity).
    expected: dict[int, float] = {}
    for keys, values in streams:
        for key, value in zip(keys.tolist(), values.tolist()):
            expected[key] = expected.get(key, 0.0) + value
    for key, value in zip(out_keys.tolist(), out_vals.tolist()):
        assert expected[int(key)] == pytest.approx(value, rel=1e-9, abs=1e-12)
    # Keys whose sum cancelled (or never existed) must be absent.
    surviving = set(out_keys.tolist())
    for key, value in expected.items():
        if key not in surviving:
            assert value == pytest.approx(0.0, abs=1e-9)


@given(matrix_a=sparse_matrices(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_spgemm_matches_scipy(matrix_a, data):
    """Both engines' SpGEMM equals scipy's A @ B on random operands."""
    matrix_b = data.draw(sparse_matrices())
    if matrix_a.shape[1] != matrix_b.shape[0]:
        # Regenerate B with a compatible leading dimension.
        dense = np.zeros((matrix_a.shape[1], matrix_b.shape[1]))
        limit = min(matrix_b.shape[0], matrix_a.shape[1])
        dense[:limit, :] = matrix_b.to_dense()[:limit, :]
        matrix_b = CSRMatrix.from_dense(dense)

    expected = (sp.csr_matrix(matrix_a.to_dense())
                @ sp.csr_matrix(matrix_b.to_dense())).toarray()
    for engine in ("scalar", "vectorized"):
        config = SpArchConfig(engine=engine, merge_tree_layers=2,
                              prefetch_buffer_lines=4,
                              prefetch_line_elements=4)
        result = SpArch(config).multiply(matrix_a, matrix_b)
        np.testing.assert_allclose(result.matrix.to_dense(), expected,
                                   rtol=1e-9, atol=1e-12)
        # CSR invariants of the result: sorted, duplicate-free rows.
        assert result.matrix.has_sorted_rows()


# ----------------------------------------------------------------------
# Zero eliminator properties
# ----------------------------------------------------------------------

@given(values=st.lists(st.sampled_from([0.0, 1.0, -2.0, 0.5]), max_size=16))
@settings(max_examples=60, deadline=None)
def test_eliminate_zeros_drops_exact_zeros_in_order(values):
    keys = np.arange(len(values), dtype=np.int64)
    out_keys, out_vals = eliminate_zeros(keys, np.array(values))
    expected = [(k, v) for k, v in zip(keys.tolist(), values) if v != 0.0]
    assert list(zip(out_keys.tolist(), out_vals.tolist())) == expected
