"""Unit tests for the streaming merge tree (§II-A.3, Figure 5)."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.core.vectorized import VectorizedMergeTree
from repro.hardware.merge_tree import MergeTree


def _sorted_stream(rng, length: int, key_range: int = 1000):
    keys = np.sort(rng.integers(0, key_range, size=length))
    vals = rng.random(length) + 0.1
    return keys, vals


def test_figure5_example_merges_four_streams():
    """The four coordinate arrays of Figure 5 merge into one sorted array."""
    streams = [
        (np.array([24, 26, 31, 52, 54, 56, 57, 58, 73, 75]), None),
        (np.array([22, 28, 42, 44, 46, 47, 48]), None),
        (np.array([11, 13, 15, 21, 23, 25, 41, 43, 45]), None),
        (np.array([12, 14, 16, 17, 18, 32, 34, 36, 37, 38, 72]), None),
    ]
    streams = [(keys, np.ones(len(keys))) for keys, _ in streams]
    tree = MergeTree(num_layers=2, merger_width=4, chunk_size=4)
    keys, vals = tree.merge(streams)
    expected = np.sort(np.concatenate([s[0] for s in streams]))
    np.testing.assert_array_equal(keys, expected)
    assert len(vals) == len(expected)


def test_merge_folds_duplicates_and_drops_zeros(rng):
    tree = MergeTree(num_layers=2, merger_width=4)
    streams = [
        (np.array([1, 5, 9]), np.array([1.0, 2.0, 3.0])),
        (np.array([1, 5, 9]), np.array([1.0, -2.0, 4.0])),
    ]
    keys, vals = tree.merge(streams)
    np.testing.assert_array_equal(keys, [1, 9])
    np.testing.assert_allclose(vals, [2.0, 7.0])
    assert tree.stats.additions == 3


def test_merge_many_streams_matches_numpy(rng):
    tree = MergeTree(num_layers=6, merger_width=16, chunk_size=4)
    streams = [_sorted_stream(rng, int(rng.integers(0, 40))) for _ in range(64)]
    keys, vals = tree.merge(streams)
    all_keys = np.concatenate([s[0] for s in streams])
    all_vals = np.concatenate([s[1] for s in streams])
    expected = {}
    for key, val in zip(all_keys.tolist(), all_vals.tolist()):
        expected[key] = expected.get(key, 0.0) + val
    expected_keys = sorted(expected)
    np.testing.assert_array_equal(keys, expected_keys)
    np.testing.assert_allclose(vals, [expected[k] for k in expected_keys])
    assert np.all(np.diff(keys) > 0)


def test_way_limit_enforced(rng):
    tree = MergeTree(num_layers=2, merger_width=4)
    streams = [_sorted_stream(rng, 4) for _ in range(5)]
    with pytest.raises(ValueError, match="4-way"):
        tree.merge(streams)


def test_unsorted_input_rejected():
    tree = MergeTree(num_layers=1, merger_width=4)
    with pytest.raises(ValueError, match="sorted"):
        tree.merge([(np.array([3, 1]), np.array([1.0, 1.0]))])
    with pytest.raises(ValueError, match="equal length"):
        tree.merge([(np.array([1]), np.array([1.0, 2.0]))])


def test_empty_and_single_stream_cases():
    tree = MergeTree(num_layers=2, merger_width=4)
    keys, vals = tree.merge([])
    assert len(keys) == 0
    keys, vals = tree.merge([(np.array([2, 4]), np.array([1.0, 0.0]))])
    np.testing.assert_array_equal(keys, [2])  # explicit zero eliminated
    np.testing.assert_allclose(vals, [1.0])


def test_structural_properties():
    tree = MergeTree(num_layers=6, merger_width=16, chunk_size=4)
    assert tree.num_ways == 64
    assert tree.num_layers == 6
    assert tree.num_mergers == 6
    assert tree.total_comparators == 6 * ((2 * 4 - 1) * 16 + 16)
    assert tree.total_fifo_entries == (2 ** 7 - 1) * 1024


@pytest.mark.parametrize("tree_type", [MergeTree, VectorizedMergeTree],
                         ids=lambda tree_type: tree_type.__name__)
def test_cycle_accounting_is_root_bound(rng, tree_type):
    """One merge costs ⌈root elements / merger width⌉ + layers cycles."""
    tree = tree_type(num_layers=3, merger_width=8)
    streams = [_sorted_stream(rng, 32) for _ in range(8)]
    tree.merge(streams)
    total = 8 * 32
    root_elements = tree.stats.elements_into_root
    assert root_elements == total
    assert tree.stats.cycles == tree.merge_cycles(root_elements)
    assert tree.merge_cycles(total) == -(-total // 8) + 3
    assert tree.merge_cycles(0) == 0
    with pytest.raises(ValueError):
        tree.merge_cycles(-1)


def test_reset_stats(rng):
    tree = MergeTree(num_layers=2, merger_width=4)
    tree.merge([_sorted_stream(rng, 8), _sorted_stream(rng, 8)])
    assert tree.stats.elements_into_root > 0
    tree.reset_stats()
    assert tree.stats.elements_into_root == 0
    assert tree.stats.cycles == 0


# ----------------------------------------------------------------------
# Behaviour shared by both trees the engines run.  The batched tree also
# runs with a tiny merge block, so one round spans many blocks.
# ----------------------------------------------------------------------

TREES = {
    "MergeTree": MergeTree,
    "VectorizedMergeTree": VectorizedMergeTree,
    "VectorizedMergeTree-block3": partial(VectorizedMergeTree,
                                          block_elements=3),
}


@pytest.fixture(params=list(TREES))
def make_tree(request):
    return TREES[request.param]


def _disjoint_streams(rng, count: int, total: int):
    """``count`` sorted streams holding ``total`` distinct keys in all."""
    keys = rng.permutation(10 * total)[:total]
    cuts = np.sort(rng.integers(0, total + 1, size=count - 1))
    return [(np.sort(part), rng.random(len(part)) + 0.1)
            for part in np.split(keys, cuts)]


def test_output_is_the_sorted_interleaving(rng, make_tree):
    tree = make_tree(num_layers=3, merger_width=4)
    streams = _disjoint_streams(rng, 8, 300)
    keys, vals = tree.merge(streams)
    all_keys = np.concatenate([s[0] for s in streams])
    all_vals = np.concatenate([s[1] for s in streams])
    order = np.argsort(all_keys)
    np.testing.assert_array_equal(keys, all_keys[order])
    np.testing.assert_array_equal(vals, all_vals[order])
    assert tree.stats.elements_out == 300
    assert tree.stats.additions == 0


def test_duplicates_are_folded_into_one_element(make_tree):
    tree = make_tree(num_layers=1, merger_width=4)
    keys, vals = tree.merge([(np.array([5, 5]), np.array([1.0, 2.0])),
                             (np.array([5]), np.array([3.0]))])
    np.testing.assert_array_equal(keys, [5])
    np.testing.assert_array_equal(vals, [6.0])
    assert tree.stats.additions == 2
    assert tree.stats.elements_into_root == 3
    assert tree.stats.elements_out == 1


def test_empty_stream_list_costs_nothing(make_tree):
    tree = make_tree(num_layers=2, merger_width=4)
    keys, vals = tree.merge([])
    assert len(keys) == 0 and len(vals) == 0
    assert tree.stats.cycles == 0
    assert tree.stats.elements_into_root == 0
    assert tree.stats.elements_out == 0


def test_fewer_streams_than_ways_including_empty_ones(make_tree):
    tree = make_tree(num_layers=2, merger_width=4)
    keys, vals = tree.merge([(np.array([3, 7]), np.array([1.0, 2.0])),
                             (np.empty(0, np.int64), np.empty(0))])
    np.testing.assert_array_equal(keys, [3, 7])
    np.testing.assert_array_equal(vals, [1.0, 2.0])
    assert tree.stats.cycles == tree.merge_cycles(2)


def test_single_stream_passes_through_the_root(make_tree):
    tree = make_tree(num_layers=2, merger_width=4)
    keys, vals = tree.merge([(np.array([1, 3]), np.array([1.0, 2.0]))])
    np.testing.assert_array_equal(keys, [1, 3])
    np.testing.assert_array_equal(vals, [1.0, 2.0])
    assert tree.stats.elements_into_root == 2
    assert tree.stats.additions == 0


def test_long_stream_against_empty_and_short_ones_drains(make_tree):
    """A long stream beside an empty one and a short overlapping one."""
    tree = make_tree(num_layers=2, merger_width=4)
    keys, vals = tree.merge([
        (np.arange(500, dtype=np.int64), np.ones(500)),
        (np.empty(0, np.int64), np.empty(0)),
        (np.array([2, 7]), np.array([5.0, 6.0])),
    ])
    np.testing.assert_array_equal(keys, np.arange(500))
    expected = np.ones(500)
    expected[[2, 7]] = [6.0, 7.0]
    np.testing.assert_array_equal(vals, expected)
    assert tree.stats.elements_into_root == 502
    assert tree.stats.additions == 2
    assert tree.stats.cycles == tree.merge_cycles(502)


def test_top_layer_carries_every_element_to_the_root(rng, make_tree):
    """Five streams on an 8-way tree: the odd one skips the first layers."""
    tree = make_tree(num_layers=3, merger_width=4)
    lengths = [10, 0, 7, 25, 4]
    streams = [_sorted_stream(rng, length) for length in lengths]
    tree.merge(streams)
    layers = tree.stats.layer_elements
    assert layers == {0: 42, 1: 42, 2: 46}
    assert layers[2] == tree.stats.elements_into_root == sum(lengths)


def test_fifo_capacity_sizes_storage_not_results(rng, make_tree):
    streams = [_sorted_stream(rng, 30) for _ in range(4)]
    roomy = make_tree(num_layers=2, merger_width=4, fifo_capacity=1024)
    cramped = make_tree(num_layers=2, merger_width=4, fifo_capacity=4)
    roomy_keys, roomy_vals = roomy.merge(streams)
    cramped_keys, cramped_vals = cramped.merge(streams)
    np.testing.assert_array_equal(cramped_keys, roomy_keys)
    np.testing.assert_array_equal(cramped_vals, roomy_vals)
    assert cramped.stats == roomy.stats
    assert cramped.total_fifo_entries == 7 * 4
    assert roomy.total_fifo_entries == 7 * 1024


def test_cycles_accumulate_one_charge_per_merge(rng, make_tree):
    tree = make_tree(num_layers=2, merger_width=4)
    tree.merge([_sorted_stream(rng, 9), _sorted_stream(rng, 4)])
    tree.merge([_sorted_stream(rng, 21)])
    assert tree.stats.elements_into_root == 34
    assert tree.stats.cycles == tree.merge_cycles(13) + tree.merge_cycles(21)


@pytest.mark.parametrize("tree_type", [MergeTree, VectorizedMergeTree],
                         ids=lambda tree_type: tree_type.__name__)
def test_way_limit_and_ragged_streams_rejected(rng, tree_type):
    tree = tree_type(num_layers=1, merger_width=4)
    with pytest.raises(ValueError, match="2-way"):
        tree.merge([_sorted_stream(rng, 4) for _ in range(3)])
    with pytest.raises(ValueError, match="equal length"):
        tree.merge([(np.array([1]), np.array([1.0, 2.0]))])


@pytest.mark.parametrize("tree_type", [MergeTree, VectorizedMergeTree],
                         ids=lambda tree_type: tree_type.__name__)
@pytest.mark.parametrize("num_layers, merger_width, elements, cycles", [
    (1, 4, 1, 2),       # a lone element still pays the fill latency
    (1, 4, 4, 2),       # exactly one root beat
    (1, 4, 5, 3),       # one element over a beat costs a whole beat
    (2, 16, 100, 9),
    (6, 16, 1000, 69),  # Table I tree: 64-way, 16 elements per cycle
])
def test_merge_charges_root_beats_plus_fill_latency(
        rng, tree_type, num_layers, merger_width, elements, cycles):
    """A merge costs ⌈root elements / merger width⌉ + layers cycles."""
    tree = tree_type(num_layers=num_layers, merger_width=merger_width)
    tree.merge(_disjoint_streams(rng, 2 ** num_layers, elements))
    assert tree.stats.elements_into_root == elements
    assert tree.stats.cycles == cycles == tree.merge_cycles(elements)
