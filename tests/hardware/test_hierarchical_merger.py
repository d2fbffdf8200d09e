"""Unit tests for the two-level hierarchical merger (§II-A.2, Figure 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.adder import AdderSlice
from repro.hardware.hierarchical_merger import (
    HierarchicalMerger,
    comparator_count,
)


def test_comparator_count_formula():
    # The paper's example: 16-wide merger from 4-wide chunks.
    assert comparator_count(16, 4) == (2 * 4 - 1) * 16 + 16
    # Degenerate case: one chunk is just a flat array plus a 1x1 top level.
    assert comparator_count(4, 4) == 16 + 1
    with pytest.raises(ValueError):
        comparator_count(10, 4)


def test_hierarchical_saves_comparators():
    merger = HierarchicalMerger(total_width=16, chunk_size=4)
    assert merger.num_comparators < 16 * 16  # a flat 16x16 array
    assert merger.throughput == 16
    assert merger.num_chunks == 4


def test_merge_matches_flat_array(rng):
    """The merge is a stable sort of the two windows' concatenation."""
    merger = HierarchicalMerger(total_width=16, chunk_size=4)
    a_keys = np.sort(rng.integers(0, 500, size=64))
    b_keys = np.sort(rng.integers(0, 500, size=50))
    a_vals = rng.random(64)
    b_vals = rng.random(50)
    h_keys, h_vals = merger.merge(a_keys, a_vals, b_keys, b_vals)
    keys = np.concatenate([a_keys, b_keys])
    order = np.argsort(keys, kind="stable")
    np.testing.assert_array_equal(h_keys, keys[order])
    np.testing.assert_array_equal(h_vals, np.concatenate([a_vals, b_vals])[order])


def test_energy_accounting_uses_fewer_comparator_ops(rng):
    """Each of the ⌈64 / 16⌉ cycles uses the 128 hierarchical comparators,
    where a flat 16x16 array would use 256."""
    hierarchical = HierarchicalMerger(total_width=16, chunk_size=4)
    keys = np.sort(rng.integers(0, 100, size=32))
    vals = rng.random(32)
    hierarchical.merge(keys, vals, keys, vals)
    assert hierarchical.stats.comparator_ops == 4 * comparator_count(16, 4)
    assert hierarchical.stats.comparator_ops < 4 * 16 * 16


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError):
        HierarchicalMerger(total_width=10, chunk_size=4)
    with pytest.raises(ValueError):
        HierarchicalMerger(total_width=0, chunk_size=1)


# ----------------------------------------------------------------------
# The worked example of Figure 3 and the merge's contract, on the merger
# the merge tree runs.
# ----------------------------------------------------------------------

#: The exact example of Figure 3: two sorted windows of four elements each.
FIG3_A = ([1, 3, 4, 13], [0.1, 0.5, 0.2, 1.2])
FIG3_B = ([3, 5, 10, 12], [0.6, 1.3, 2.2, 1.1])


def test_merge_reproduces_figure3():
    merger = HierarchicalMerger(total_width=4, chunk_size=4)
    keys, vals = merger.merge(*FIG3_A, *FIG3_B)
    np.testing.assert_array_equal(keys, [1, 3, 3, 4, 5, 10, 12, 13])
    # The two coordinate-3 entries are adjacent, window A's first, ready
    # for the adder slice to fold them into (3, 1.1) as the figure shows.
    np.testing.assert_array_equal(vals, [0.1, 0.5, 0.6, 0.2, 1.3, 2.2, 1.1,
                                         1.2])
    folded_keys, folded_vals = AdderSlice().fold(keys, vals)
    np.testing.assert_array_equal(folded_keys, [1, 3, 4, 5, 10, 12, 13])
    np.testing.assert_allclose(folded_vals, [0.1, 1.1, 0.2, 1.3, 2.2, 1.1,
                                             1.2])


def test_merge_with_an_empty_window():
    merger = HierarchicalMerger(total_width=4, chunk_size=4)
    empty = (np.empty(0, np.int64), np.empty(0))
    for window in (FIG3_A, FIG3_B):
        for left, right in ((empty, window), (window, empty)):
            keys, vals = merger.merge(*left, *right)
            np.testing.assert_array_equal(keys, window[0])
            np.testing.assert_array_equal(vals, window[1])
    keys, vals = merger.merge(*empty, *empty)
    assert len(keys) == len(vals) == 0
    assert keys.dtype == np.int64 and vals.dtype == np.float64
    # Four one-cycle merges of four elements each; the empty one is free.
    assert merger.stats.comparator_ops == 4 * merger.num_comparators


def test_merge_keeps_duplicates_separate_and_stable():
    """The merger interleaves only; the adder slice folds duplicates later."""
    merger = HierarchicalMerger(total_width=4, chunk_size=2)
    keys, vals = merger.merge(np.array([2, 2]), np.array([1.0, 2.0]),
                              np.array([2]), np.array([3.0]))
    np.testing.assert_array_equal(keys, [2, 2, 2])
    np.testing.assert_array_equal(vals, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("total_width, chunk_size", [
    (1, 1), (2, 1), (4, 2), (4, 4), (16, 4), (64, 4),
])
def test_merge_matches_sorted_concatenation(total_width, chunk_size, rng):
    """Any geometry gives the same stream; only the charge scales."""
    a_keys = np.sort(rng.integers(0, 1000, size=37))
    b_keys = np.sort(rng.integers(0, 1000, size=23))
    a_vals = rng.random(37)
    b_vals = rng.random(23)
    merger = HierarchicalMerger(total_width=total_width,
                                chunk_size=chunk_size)
    keys, vals = merger.merge(a_keys, a_vals, b_keys, b_vals)
    all_keys = np.concatenate([a_keys, b_keys])
    order = np.argsort(all_keys, kind="stable")
    np.testing.assert_array_equal(keys, all_keys[order])
    np.testing.assert_array_equal(vals, np.concatenate([a_vals, b_vals])[order])
    beats = -(-60 // total_width)
    assert merger.stats.comparator_ops == beats * comparator_count(
        total_width, chunk_size)


def test_comparator_ops_accumulate_one_charge_per_merge():
    merger = HierarchicalMerger(total_width=4, chunk_size=2)
    merger.merge(np.arange(8), np.ones(8), np.arange(8, 16), np.ones(8))
    # 16 merged elements at 4 per cycle.
    assert merger.stats.comparator_ops == 4 * merger.num_comparators
    merger.merge(np.array([1]), np.array([1.0]), np.array([2]),
                 np.array([2.0]))
    # Two elements still occupy one whole cycle of the array.
    assert merger.stats.comparator_ops == 5 * merger.num_comparators


def test_mismatched_key_value_lengths_rejected():
    merger = HierarchicalMerger(total_width=4, chunk_size=4)
    with pytest.raises(ValueError, match="equal length"):
        merger.merge(np.array([1]), np.array([1.0, 2.0]), np.array([2]),
                     np.array([1.0]))
    with pytest.raises(ValueError, match="equal length"):
        merger.merge(np.array([1]), np.array([1.0]), np.array([2, 3]),
                     np.array([1.0]))
    assert merger.stats.comparator_ops == 0


@pytest.mark.parametrize("total_width", [8, 64, 512])
def test_optimal_split_needs_order_n_to_the_four_thirds(total_width):
    """With n^{2/3} chunks of n^{1/3}, the count is (2·n^{2/3} − 1)·n^{2/3}
    + n^{4/3}, under the n² of a flat array."""
    cube_root = round(total_width ** (1 / 3))
    chunks = cube_root * cube_root
    count = comparator_count(total_width, cube_root)
    assert count == (2 * chunks - 1) * cube_root ** 2 + chunks ** 2
    assert count < total_width ** 2
    assert count < 3 * cube_root ** 4  # 3 · n^{4/3}
