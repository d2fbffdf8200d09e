"""Unit tests for the adder slice and zero eliminator (§II-A.4, Figure 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.adder import AdderSlice, add_duplicates
from repro.hardware.zero_eliminator import eliminate_zeros


class TestAdderSlice:
    def test_folds_adjacent_duplicates(self):
        adder = AdderSlice()
        keys, vals = adder.fold(np.array([1, 1, 2, 3, 3, 3]),
                                np.array([1.0, 2.0, 5.0, 1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(keys, [1, 2, 3])
        np.testing.assert_allclose(vals, [3.0, 5.0, 3.0])
        assert adder.stats.additions == 3
        assert adder.stats.elements_processed == 6

    def test_keeps_cancelled_zeros(self):
        keys, vals, additions = add_duplicates(np.array([4, 4]),
                                               np.array([1.5, -1.5]))
        np.testing.assert_array_equal(keys, [4])
        np.testing.assert_allclose(vals, [0.0])
        assert additions == 1

    def test_requires_sorted_input(self):
        adder = AdderSlice()
        with pytest.raises(ValueError, match="sorted"):
            adder.fold(np.array([3, 1]), np.array([1.0, 1.0]))

    def test_empty_input(self):
        adder = AdderSlice()
        keys, vals = adder.fold(np.empty(0, np.int64), np.empty(0))
        assert len(keys) == 0 and len(vals) == 0
        assert adder.stats.additions == 0

    def test_reset_stats(self):
        adder = AdderSlice()
        adder.fold(np.array([1, 1]), np.array([1.0, 1.0]))
        adder.reset_stats()
        assert adder.stats.additions == 0


def test_eliminate_zeros_functional():
    keys, vals = eliminate_zeros(np.array([1, 2, 3]), np.array([0.0, 5.0, 0.0]))
    np.testing.assert_array_equal(keys, [2])
    np.testing.assert_allclose(vals, [5.0])
    with pytest.raises(ValueError):
        eliminate_zeros(np.array([1]), np.array([1.0, 2.0]))


def test_eliminate_zeros_figure6_example():
    """The worked example of Figure 6: [1,0,0,2,3,0,4,0] → [1,2,3,4]."""
    keys, vals = eliminate_zeros(np.arange(8),
                                 np.array([1.0, 0.0, 0.0, 2.0,
                                           3.0, 0.0, 4.0, 0.0]))
    np.testing.assert_array_equal(keys, [0, 3, 4, 6])
    np.testing.assert_array_equal(vals, [1.0, 2.0, 3.0, 4.0])


def test_eliminate_zeros_all_zero_and_no_zero_windows():
    keys, vals = eliminate_zeros(np.array([0, 1, 2]), np.zeros(3))
    assert len(keys) == 0 and len(vals) == 0
    keys, vals = eliminate_zeros(np.array([5, 6]), np.array([1.0, 2.0]))
    np.testing.assert_array_equal(keys, [5, 6])
    np.testing.assert_array_equal(vals, [1.0, 2.0])


@pytest.mark.parametrize("width", [2, 4, 8, 16])
def test_eliminate_zeros_matches_the_zero_count_shifter(width, rng):
    """Fig. 6: each survivor moves left by the zeros before it."""
    values = rng.standard_normal(width)
    values[rng.random(width) < 0.5] = 0.0
    keys = np.arange(100, 100 + width)
    is_zero = values == 0.0
    zero_count = np.cumsum(is_zero) - is_zero
    shifted_keys = np.zeros(width, dtype=np.int64)
    shifted_vals = np.zeros(width)
    for position in np.flatnonzero(~is_zero):
        shifted_keys[position - zero_count[position]] = keys[position]
        shifted_vals[position - zero_count[position]] = values[position]
    survivors = int((~is_zero).sum())
    out_keys, out_vals = eliminate_zeros(keys, values)
    np.testing.assert_array_equal(out_keys, shifted_keys[:survivors])
    np.testing.assert_array_equal(out_vals, shifted_vals[:survivors])


def test_eliminate_zeros_drops_negative_zero_keeps_negatives():
    keys, vals = eliminate_zeros(np.array([1, 2, 3]),
                                 np.array([-0.0, -3.0, 0.0]))
    np.testing.assert_array_equal(keys, [2])
    np.testing.assert_array_equal(vals, [-3.0])


def test_eliminate_zeros_coerces_inputs():
    keys, vals = eliminate_zeros([4, 9], [0, 2])
    assert keys.dtype == np.int64 and vals.dtype == np.float64
    np.testing.assert_array_equal(keys, [9])
    keys, vals = eliminate_zeros([], [])
    assert keys.dtype == np.int64 and len(keys) == 0
    assert vals.dtype == np.float64 and len(vals) == 0
