"""Unit tests for the partial-matrix store and result writer (§II-E)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accelerator import SpArch
from repro.core.config import SpArchConfig
from repro.core.partial_matrix import PartialMatrixStore, PartialMatrixWriter
from repro.formats.convert import coo_to_csr
from repro.formats.coo import COOMatrix
from repro.formats.keys import linear_key_dtype
from repro.matrices.rmat import RMATConfig, generate_rmat
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


def test_store_keeps_integer_key_dtype():
    store = PartialMatrixStore(TrafficCounter())
    store.write(1, np.array([1, 5], dtype=np.int32), np.array([1.0, 2.0]))
    store.write(2, [3, 4], [1, 2])
    keys, values = store.read(1)
    assert keys.dtype == np.int32 and values.dtype == np.float64
    keys, values = store.read(2)
    assert keys.dtype == np.int64 and values.dtype == np.float64


def test_int32_keyspace_multiply_reloads_int32_spills(monkeypatch):
    """Six merge rounds on an int32 keyspace: every spill reloads as int32,
    and the result and every counter equal the scalar engine's."""
    matrix = generate_rmat(RMATConfig(num_rows=1000, edge_factor=16, seed=0))
    assert linear_key_dtype(*matrix.shape) == np.int32
    reloaded = []
    read = PartialMatrixStore.read

    def spy(self, node_id):
        keys, values = read(self, node_id)
        reloaded.append(keys.dtype)
        return keys, values

    monkeypatch.setattr(PartialMatrixStore, "read", spy)
    batched = SpArch(SpArchConfig()).multiply(matrix, matrix)
    monkeypatch.undo()
    assert batched.stats.num_merge_rounds == 6
    assert reloaded and set(reloaded) == {np.dtype(np.int32)}

    scalar = SpArch(SpArchConfig(engine="scalar")).multiply(matrix, matrix)
    assert batched.stats == scalar.stats
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(batched.matrix, name),
                                      getattr(scalar.matrix, name))


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


@pytest.mark.parametrize("cuts", [[], [1], [2, 5], [0, 3, 3, 7]])
def test_writer_bands_equal_one_stream(cuts):
    rng = np.random.default_rng(len(cuts))
    keys = np.sort(rng.choice(60, size=9, replace=False))
    vals = rng.standard_normal(len(keys))
    want = PartialMatrixWriter(TrafficCounter()).write_result(keys, vals,
                                                              (5, 12))
    traffic = TrafficCounter()
    bands = list(zip(np.split(keys, cuts), np.split(vals, cuts)))
    got = PartialMatrixWriter(traffic).write_bands(bands, (5, 12),
                                                   capacity=len(keys) + 4)
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)
    assert traffic.bytes_by_category[TrafficCategory.RESULT_WRITE] == 9 * 16


@pytest.mark.parametrize("bands", [
    [[1, 5, 9], [9, 10]],   # a key repeats across bands
    [[1, 5, 9], [2, 10]],   # a later band starts lower
    [[1, 5], [9, 3, 10]],   # a band is not sorted itself
])
def test_writer_bands_refuse_keys_that_do_not_increase(bands):
    # Both merge trees emit folded, strictly increasing keys; anything
    # else is a merge bug, not a result to canonicalise.
    traffic = TrafficCounter()
    with pytest.raises(ValueError, match="increase strictly"):
        PartialMatrixWriter(traffic).write_bands(
            [(np.array(band), np.ones(len(band))) for band in bands],
            (3, 4), capacity=sum(map(len, bands)))
    assert traffic.total_bytes == 0


@pytest.mark.parametrize("bands", [
    [[1, 5], [6, 9], [10]],        # canonical bands
])
def test_writer_bands_may_be_views_the_next_band_overwrites(bands):
    # As the merge tree's band workspace: one buffer, rewritten per band.
    values = [np.arange(1.0, len(band) + 1) * (i + 1)
              for i, band in enumerate(bands)]

    def reused():
        key_buffer = np.empty(3, dtype=np.int64)
        value_buffer = np.empty(3)
        for band, vals in zip(bands, values):
            key_buffer[:len(band)] = band
            value_buffer[:len(band)] = vals
            yield key_buffer[:len(band)], value_buffer[:len(band)]

    capacity = sum(map(len, bands))
    want = PartialMatrixWriter(TrafficCounter()).write_bands(
        [(np.array(band), vals) for band, vals in zip(bands, values)],
        (3, 4), capacity=capacity)
    got = PartialMatrixWriter(TrafficCounter()).write_bands(
        reused(), (3, 4), capacity=capacity)
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)


def test_writer_bands_are_checked():
    writer = PartialMatrixWriter(TrafficCounter())
    with pytest.raises(ValueError, match="outside shape"):
        writer.write_bands([(np.array([1, 2]), np.ones(2)),
                            (np.array([12]), np.ones(1))], (3, 4), capacity=3)
    with pytest.raises(ValueError, match="equal length"):
        writer.write_bands([(np.array([1, 2]), np.ones(2)),
                            (np.array([5]), np.ones(2))], (3, 4), capacity=4)
    with pytest.raises(ValueError, match="more than 2"):
        writer.write_bands([(np.array([1, 2]), np.ones(2)),
                            (np.array([5]), np.ones(1))], (3, 4), capacity=2)


def test_round_trip_charges_a_spill_and_a_reload():
    traffic = TrafficCounter()
    PartialMatrixStore(traffic, element_bytes=16).round_trip(5)
    assert traffic.bytes_by_category[TrafficCategory.PARTIAL_WRITE] == 80
    assert traffic.bytes_by_category[TrafficCategory.PARTIAL_READ] == 80
