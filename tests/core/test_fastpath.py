"""Unit tests for the fast-path kernels (`repro.core.fastpath`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fastpath
from repro.core.fastpath import (
    fold_sorted_runs,
    row_offsets,
    sort_pairs_in_place,
)

#: Keys a few units either side of these centres sit on the packed sort's
#: overflow boundary, so examples there take the stable-argsort fallback.
OVERFLOW_CENTRES = (1 << 62, -(1 << 62))


def reference_merge(key_parts, value_parts):
    """One stable argsort over the concatenation."""
    keys = np.concatenate(key_parts, dtype=np.int64)
    values = np.concatenate(value_parts)
    order = np.argsort(keys, kind="stable")
    return keys[order], values[order]


def merge_in_place(key_parts, value_parts, spare=3):
    """The streams laid end to end in buffers with room to spare, sorted.

    Also checks that the sort reads ``values`` and ``positions`` only.
    """
    keys = np.concatenate([np.empty(0, np.int64), *key_parts],
                          dtype=np.int64)
    values = np.concatenate([np.empty(0), *value_parts])
    positions = np.arange(len(keys) + spare, dtype=np.int64)
    merged_values = np.full(len(keys) + spare, np.nan)
    values_before = values.copy()
    got = sort_pairs_in_place(keys, values, positions, merged_values)
    np.testing.assert_array_equal(values.view(np.uint64),
                                  values_before.view(np.uint64))
    np.testing.assert_array_equal(positions, np.arange(len(positions)))
    return got


def assert_same_merge(got, want):
    """Keys equal as int64, values equal bit for bit."""
    assert got[0].dtype == np.int64
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1].view(np.uint64),
                                  want[1].view(np.uint64))


@st.composite
def sorted_streams(draw):
    """1–64 sorted key streams, some empty, with duplicate and tied keys.

    Keys are drawn from a narrow window, so they repeat within a stream and
    tie across streams.  Near zero the window is signed and streams mix
    int32 and int64 keys; near ±2⁶² all keys are int64.  Values include
    ``±0.0``, so a wrong tie order shows in the bits.
    """
    num_streams = draw(st.integers(1, 64))
    near_overflow = draw(st.booleans())
    centre = draw(st.sampled_from(OVERFLOW_CENTRES)) if near_overflow else 0
    span = draw(st.sampled_from((0, 3, 40, 10**6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    key_parts, value_parts = [], []
    for _ in range(num_streams):
        length = int(rng.integers(0, 24))
        keys = np.sort(rng.integers(centre - span, centre + span + 1,
                                    size=length))
        if centre == 0 and rng.random() < 0.5:
            keys = keys.astype(np.int32)
        values = rng.standard_normal(length)
        values[rng.random(length) < 0.2] = 0.0
        values[rng.random(length) < 0.2] = -0.0
        key_parts.append(keys)
        value_parts.append(values)
    return key_parts, value_parts


def reference_fold(keys, values):
    """Straight-line reference: reduceat folding + zero elimination."""
    if not len(keys):
        return keys.copy(), values.copy(), 0
    starts = np.flatnonzero(np.concatenate(
        [[True], keys[1:] != keys[:-1]]))
    folded = np.add.reduceat(values, starts)
    keep = folded != 0.0
    return keys[starts[keep]], folded[keep], len(starts)


class TestFoldSortedRuns:
    def test_empty_stream(self):
        keys, vals, runs = fold_sorted_runs(np.empty(0, np.int64),
                                            np.empty(0))
        assert len(keys) == 0 and len(vals) == 0 and runs == 0

    def test_all_distinct_no_zeros_passes_through(self):
        keys = np.array([1, 4, 9], dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0])
        out_keys, out_vals, runs = fold_sorted_runs(keys, vals)
        np.testing.assert_array_equal(out_keys, keys)
        np.testing.assert_array_equal(out_vals, vals)
        assert runs == 3

    def test_duplicates_fold_and_zeros_drop(self):
        keys = np.array([2, 2, 5, 7, 7, 7], dtype=np.int64)
        vals = np.array([1.5, -1.5, 2.0, 1.0, 1.0, 1.0])
        out_keys, out_vals, runs = fold_sorted_runs(keys, vals)
        np.testing.assert_array_equal(out_keys, [5, 7])
        np.testing.assert_array_equal(out_vals, [2.0, 3.0])
        assert runs == 3  # the cancelled run still counts as a run

    def test_explicit_zero_without_duplicates_drops(self):
        keys = np.array([1, 2, 3], dtype=np.int64)
        vals = np.array([1.0, 0.0, 3.0])
        out_keys, out_vals, runs = fold_sorted_runs(keys, vals)
        np.testing.assert_array_equal(out_keys, [1, 3])
        assert runs == 3

    def test_matches_reference_on_random_streams(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = int(rng.integers(1, 400))
            keys = np.sort(rng.integers(0, max(2, n // 3), size=n)
                           ).astype(np.int64)
            vals = rng.standard_normal(n)
            # Sprinkle exact cancellations: mirror some adjacent pairs.
            for i in range(0, n - 1, 7):
                if keys[i] == keys[i + 1]:
                    vals[i + 1] = -vals[i]
            got = fold_sorted_runs(keys, vals)
            want = reference_fold(keys, vals)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            assert got[2] == want[2]

    def test_int32_keys_preserved(self):
        keys = np.array([3, 3, 8], dtype=np.int32)
        vals = np.array([1.0, 2.0, 4.0])
        out_keys, _, _ = fold_sorted_runs(keys, vals)
        assert out_keys.dtype == np.int32


class TestSortPairsInPlace:
    @settings(max_examples=300, deadline=None)
    @given(sorted_streams())
    def test_matches_stable_argsort(self, streams):
        key_parts, value_parts = streams
        assert_same_merge(merge_in_place(key_parts, value_parts),
                          reference_merge(key_parts, value_parts))

    def test_sorts_in_the_given_buffers(self):
        keys = np.array([7, 3, 7, 1], dtype=np.int64)
        values = np.array([1.0, 2.0, 3.0, 4.0])
        merged_values = np.zeros(6)
        got_keys, got_values = sort_pairs_in_place(
            keys, values, np.arange(6, dtype=np.int64), merged_values)
        assert got_keys is keys
        assert got_values.base is merged_values
        np.testing.assert_array_equal(keys, [1, 3, 7, 7])
        np.testing.assert_array_equal(merged_values, [4, 2, 1, 3, 0, 0])

    @pytest.mark.parametrize("keys", [
        [(1 << 62) - 1, -(1 << 62)],      # largest packable range for n = 2
        [1 << 62, 0],                      # one past the top: fallback
        [-(1 << 62) - 1, 0],               # one past the bottom: fallback
        [(1 << 63) - 1, -(1 << 63)],       # the int64 extremes
    ])
    def test_overflow_boundary(self, keys):
        key_parts = [np.array([k], dtype=np.int64) for k in keys]
        value_parts = [np.array([1.0]), np.array([2.0])]
        assert_same_merge(merge_in_place(key_parts, value_parts),
                          reference_merge(key_parts, value_parts))

    def test_single_element_and_empty(self):
        empty = merge_in_place([np.empty(0, np.int32)], [np.empty(0)])
        assert len(empty[0]) == 0 and len(empty[1]) == 0
        one = merge_in_place([np.empty(0, np.int64), np.array([3])],
                             [np.empty(0), np.array([2.5])])
        np.testing.assert_array_equal(one[0], [3])
        np.testing.assert_array_equal(one[1], [2.5])

    def test_gathers_bands_longer_than_one_chunk(self, monkeypatch):
        monkeypatch.setattr(fastpath, "GATHER_CHUNK", 5)
        rng = np.random.default_rng(4)
        key_parts = [np.sort(rng.integers(0, 9, size=n)) for n in (7, 0, 13)]
        value_parts = [rng.standard_normal(len(keys)) for keys in key_parts]
        assert_same_merge(merge_in_place(key_parts, value_parts),
                          reference_merge(key_parts, value_parts))


class TestRowOffsets:
    def test_matches_manual_walk(self):
        indptr = np.array([0, 3, 3, 5, 9], dtype=np.int64)
        expected = [0, 1, 2, 0, 1, 0, 1, 2, 3]
        np.testing.assert_array_equal(row_offsets(indptr), expected)

    def test_empty_matrix(self):
        assert len(row_offsets(np.array([0, 0, 0], dtype=np.int64))) == 0

    def test_random_indptr(self):
        rng = np.random.default_rng(11)
        lengths = rng.integers(0, 6, size=50)
        indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        offsets = row_offsets(indptr)
        expected = [off for length in lengths for off in range(length)]
        np.testing.assert_array_equal(offsets, expected)
