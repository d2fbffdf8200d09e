"""Unit tests for the partial-matrix store and result writer (§II-E)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.partial_matrix import PartialMatrixStore, PartialMatrixWriter
from repro.formats.convert import coo_to_csr
from repro.formats.coo import COOMatrix
from repro.memory.traffic import TrafficCategory, TrafficCounter


def test_store_write_read_roundtrip():
    traffic = TrafficCounter()
    store = PartialMatrixStore(traffic, element_bytes=16)
    keys = np.array([1, 5, 9])
    vals = np.array([1.0, 2.0, 3.0])
    store.write(7, keys, vals)
    got_keys, got_vals = store.read(7)
    np.testing.assert_array_equal(got_keys, keys)
    np.testing.assert_allclose(got_vals, vals)
    with pytest.raises(KeyError):
        store.read(7)  # a read consumes the entry


def test_store_traffic_accounting():
    traffic = TrafficCounter()
    store = PartialMatrixStore(traffic, element_bytes=16)
    store.write(1, np.array([1, 2]), np.array([1.0, 2.0]))
    store.read(1)
    assert traffic.bytes_by_category[TrafficCategory.PARTIAL_WRITE] == 32
    assert traffic.bytes_by_category[TrafficCategory.PARTIAL_READ] == 32


def test_store_error_paths():
    store = PartialMatrixStore(TrafficCounter())
    store.write(1, np.array([1]), np.array([1.0]))
    with pytest.raises(ValueError, match="already stored"):
        store.write(1, np.array([2]), np.array([2.0]))
    with pytest.raises(ValueError, match="equal length"):
        store.write(2, np.array([1, 2]), np.array([1.0]))
    with pytest.raises(KeyError):
        store.read(99)


def test_writer_produces_csr_and_charges_traffic():
    traffic = TrafficCounter()
    writer = PartialMatrixWriter(traffic, element_bytes=16)
    # Keys are linearised (row * num_cols + col) for a 3x4 result.
    keys = np.array([0 * 4 + 1, 1 * 4 + 2, 2 * 4 + 3])
    vals = np.array([1.0, 2.0, 3.0])
    result = writer.write_result(keys, vals, (3, 4))
    expected = np.zeros((3, 4))
    expected[0, 1], expected[1, 2], expected[2, 3] = 1.0, 2.0, 3.0
    np.testing.assert_allclose(result.to_dense(), expected)
    assert traffic.bytes_by_category[TrafficCategory.RESULT_WRITE] == 3 * 16


def test_writer_empty_result():
    writer = PartialMatrixWriter(TrafficCounter())
    result = writer.write_result(np.empty(0, np.int64), np.empty(0), (2, 2))
    assert result.nnz == 0
    with pytest.raises(ValueError):
        writer.write_result(np.array([1]), np.empty(0), (2, 2))


@pytest.mark.parametrize("seed", range(5))
def test_writer_matches_coo_path_with_empty_rows(seed):
    # Rows 0-2, 9-11 and 17-19 stay empty: leading, middle and trailing.
    rng = np.random.default_rng(seed)
    num_rows, num_cols = 20, 13
    occupied = np.r_[3:9, 12:17]
    pool = (occupied[:, None] * num_cols + np.arange(num_cols)).ravel()
    keys = np.sort(rng.choice(pool, size=40, replace=False))
    vals = rng.standard_normal(len(keys))
    result = PartialMatrixWriter(TrafficCounter()).write_result(
        keys, vals, (num_rows, num_cols))
    want = coo_to_csr(COOMatrix(keys // num_cols, keys % num_cols, vals,
                                (num_rows, num_cols)))
    np.testing.assert_array_equal(result.indptr, want.indptr)
    np.testing.assert_array_equal(result.indices, want.indices)
    np.testing.assert_array_equal(result.data, want.data)
    assert result.indptr[3] == 0 and result.indptr[17] == len(keys)


@pytest.mark.parametrize("keys", [[-1, 4], [-5], [3, 12], [12]])
def test_writer_rejects_keys_outside_shape(keys):
    # A 3x4 result holds keys 0..11 only.
    writer = PartialMatrixWriter(TrafficCounter())
    with pytest.raises(ValueError):
        writer.write_result(np.array(keys), np.ones(len(keys)), (3, 4))
