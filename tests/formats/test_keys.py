"""Tests for the 64-bit key-promotion rule (`repro.formats.keys`).

The headline regression: a result shape whose ``rows · cols`` product
exceeds 2³¹ used to wrap the linearised merge keys on platforms where the
intermediate stayed 32-bit, silently folding unrelated coordinates
together.  The end-to-end test below builds such a shape *cheaply* (huge
dimensions, four nonzeros) and checks the one output coordinate whose key
lands beyond the int32 keyspace, through all three engines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accelerator import SpArch
from repro.core.config import SpArchConfig
from repro.formats.csr import CSRMatrix
from repro.formats.keys import INT32_KEYSPACE, linear_key_dtype, linear_keys


class TestLinearKeyDtype:
    def test_boundary_product_needs_int64(self):
        # 2**15 * 2**16 == 2**31 exactly: key 2**31 - 1 still fits int32,
        # but the rule is conservative at the boundary by design.
        assert linear_key_dtype(2 ** 15, 2 ** 16) == np.int64

    def test_just_below_boundary_stays_int32(self):
        assert linear_key_dtype(2 ** 15, 2 ** 16 - 1) == np.int32

    def test_small_shapes_stay_int32(self):
        assert linear_key_dtype(1000, 1000) == np.int32

    def test_paper_scale_shapes_need_int64(self):
        # 10⁵-row square results are deep inside int64 territory.
        assert linear_key_dtype(100_000, 100_000) == np.int64
        assert int(100_000) * int(100_000) >= INT32_KEYSPACE


class TestLinearKeys:
    def test_no_wrap_with_narrow_inputs(self):
        # int32 index arrays (e.g. from a scipy round trip) must not make
        # the row * num_cols product wrap.
        rows = np.array([65535], dtype=np.int32)
        cols = np.array([65537], dtype=np.int32)
        keys = linear_keys(rows, cols, 65538)
        assert keys.dtype == np.int64
        assert keys[0] == 65535 * 65538 + 65537
        assert keys[0] > INT32_KEYSPACE

    def test_optional_downcast(self):
        keys = linear_keys(np.array([2]), np.array([3]), 10,
                           dtype=np.dtype(np.int32))
        assert keys.dtype == np.int32
        assert keys[0] == 23


@pytest.mark.parametrize("engine", ["scalar", "vectorized"])
def test_keys_beyond_int32_survive_the_datapath(engine):
    """A > 2³¹ key product must not wrap in any engine.

    ``A`` is (65536, 4) with its only nonzeros in the last row; ``B`` is
    (4, 65538) with one nonzero per row in the last column.  The single
    output entry C[65535, 65537] = 1·1 + 2·2 + 3·3 + 4·4 = 30 carries the
    linear key 65535 · 65538 + 65537 ≈ 4.3e9 > 2³¹; a 32-bit wrap would
    misplace (or split) it.
    """
    num_rows, inner, num_cols = 65536, 4, 65538
    indptr_a = np.zeros(num_rows + 1, dtype=np.int64)
    indptr_a[-1] = inner
    matrix_a = CSRMatrix(indptr_a, np.arange(inner, dtype=np.int64),
                         np.arange(1.0, inner + 1.0), (num_rows, inner))
    matrix_b = CSRMatrix(np.arange(inner + 1, dtype=np.int64),
                         np.full(inner, num_cols - 1, dtype=np.int64),
                         np.arange(1.0, inner + 1.0), (inner, num_cols))
    assert int(num_rows) * int(num_cols) > INT32_KEYSPACE

    result = SpArch(SpArchConfig(engine=engine)).multiply(matrix_a, matrix_b)
    out = result.matrix
    assert out.shape == (num_rows, num_cols)
    assert out.nnz == 1
    assert out.indptr[num_rows] - out.indptr[num_rows - 1] == 1
    np.testing.assert_array_equal(out.indices, [num_cols - 1])
    np.testing.assert_allclose(out.data, [30.0])
