"""Unit tests for the batched engines' two building blocks.

The end-to-end contract (batched == scalar) lives in
``tests/integration/test_engine_equivalence.py`` and the block-size
property test; this module exercises the pieces in isolation — the blocked
merge+fold of :class:`VectorizedMergeTree` against the scalar tree, and the
round-batched leaf streamer against the scalar ``_LeafStreamer``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.vectorized as vectorized
from repro.core.accelerator import _LeafStreamer
from repro.core.huffman import huffman_schedule
from repro.core.vectorized import VectorizedLeafStreamer, VectorizedMergeTree
from repro.formats.condensed import CondensedMatrix
from repro.hardware.merge_tree import MergeTree
from repro.matrices.rmat import RMATConfig, generate_rmat
from repro.matrices.synthetic import random_matrix


def random_sorted_streams(rng, num_streams, max_len=120):
    """Sorted (key, value) streams with plenty of cross-stream ties."""
    streams = []
    for _ in range(num_streams):
        n = int(rng.integers(0, max_len))
        keys = np.sort(rng.integers(0, 60, size=n)).astype(np.int64)
        vals = rng.standard_normal(n)
        streams.append((keys, vals))
    return streams


def distinct_sorted_streams(rng, lengths, key_space=10_000):
    """Sorted streams of distinct keys (like leaf streams and folded rounds).

    Stream ``i``'s keys are all ``≡ i (mod len(lengths))``, so every key
    names the stream it came from.
    """
    return [(np.sort(rng.choice(key_space, size=n, replace=False))
             * len(lengths) + i, rng.standard_normal(n))
            for i, n in enumerate(lengths)]


def assert_same_counters(blocked, reference):
    """Every counter of the tree, its adder and its layer mergers."""
    assert blocked.stats == reference.stats
    assert blocked._adder.stats == reference._adder.stats
    assert ([m.stats for m in blocked._layer_mergers]
            == [m.stats for m in reference._layer_mergers])


class TestBlockedMergeTree:
    @pytest.mark.parametrize("block", [1, 2, 7, 64, 10**9])
    def test_blocked_merge_matches_scalar(self, block):
        rng = np.random.default_rng(3)
        reference = MergeTree(num_layers=3)
        blocked = VectorizedMergeTree(num_layers=3, block_elements=block)
        for trial in range(10):
            streams = random_sorted_streams(rng, int(rng.integers(1, 9)))
            ref_keys, ref_vals = reference.merge([(k.copy(), v.copy())
                                                  for k, v in streams])
            got_keys, got_vals = blocked.merge([(k.copy(), v.copy())
                                                for k, v in streams])
            np.testing.assert_array_equal(ref_keys, got_keys)
            np.testing.assert_array_equal(ref_vals, got_vals)
            assert_same_counters(blocked, reference)

    def test_tie_break_order_across_streams(self):
        # Equal keys must fold in ascending stream order (stable global
        # sort semantics): a block boundary must never split a run.
        streams = [
            (np.array([5, 5, 9], dtype=np.int64),
             np.array([1.0, 2.0, 4.0])),
            (np.array([5, 9, 9], dtype=np.int64),
             np.array([8.0, 16.0, 32.0])),
        ]
        reference = MergeTree(num_layers=2)
        want = reference.merge([(k.copy(), v.copy()) for k, v in streams])
        for block in (1, 2, 3, 100):
            tree = VectorizedMergeTree(num_layers=2, block_elements=block)
            got = tree.merge([(k.copy(), v.copy()) for k, v in streams])
            np.testing.assert_array_equal(want[0], got[0])
            np.testing.assert_array_equal(want[1], got[1])

    def test_short_streams_merge_as_one_block(self, monkeypatch):
        # A round whose streams all fit in one block must not split at
        # every stream end: one block, one fold.
        folds = []
        fold = vectorized.fold_sorted_runs

        def counting_fold(keys, values):
            folds.append(len(keys))
            return fold(keys, values)

        monkeypatch.setattr(vectorized, "fold_sorted_runs", counting_fold)
        rng = np.random.default_rng(8)
        streams = distinct_sorted_streams(rng, [3, 9, 1, 15, 6, 11, 2, 4])
        tree = VectorizedMergeTree(num_layers=3, block_elements=16)
        reference = MergeTree(num_layers=3)
        got = tree.merge(streams)
        want = reference.merge(streams)
        assert folds == [51]
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("block", [1, 3, 16, 50])
    def test_blocks_take_at_most_block_elements_per_stream(self, block):
        rng = np.random.default_rng(block)
        lengths = [0, 120, 7, 45, 200, 16, 1]
        streams = distinct_sorted_streams(rng, lengths)
        tree = VectorizedMergeTree(num_layers=3, block_elements=block)
        taken = [[] for _ in streams]
        previous_top = None
        for key_parts, _ in tree._blocks(streams):
            assert all(0 < len(part) <= block for part in key_parts)
            block_keys = np.concatenate(key_parts)
            # Later blocks hold strictly greater keys only.
            if previous_top is not None:
                assert block_keys.min() > previous_top
            previous_top = block_keys.max()
            for part in key_parts:
                taken[int(part[0]) % len(lengths)].append(part)
        # The blocks cover every stream exactly once, in order.
        for (keys, _), parts in zip(streams, taken):
            covered = np.concatenate(parts) if parts else keys[:0]
            np.testing.assert_array_equal(covered, keys)

    def test_empty_streams(self):
        tree = VectorizedMergeTree(num_layers=2, block_elements=4)
        keys, vals = tree.merge([(np.empty(0, np.int64), np.empty(0))])
        assert len(keys) == 0 and len(vals) == 0

    def test_full_cancellation(self):
        streams = [
            (np.array([3], dtype=np.int64), np.array([2.5])),
            (np.array([3], dtype=np.int64), np.array([-2.5])),
        ]
        tree = VectorizedMergeTree(num_layers=2, block_elements=1)
        keys, vals = tree.merge(streams)
        assert len(keys) == 0
        assert tree.stats.additions == 1


class TestBatchedLeafStreamer:
    """The batched streamer against the scalar ``_LeafStreamer``."""

    @pytest.mark.parametrize("condensing", [True, False])
    @pytest.mark.parametrize("ways", [4, 64])
    def test_bound_streams_match_scalar(self, condensing, ways):
        matrix = generate_rmat(RMATConfig(num_rows=120, edge_factor=4,
                                          seed=5))
        reference = _LeafStreamer(matrix, matrix, condensing=condensing)
        batched = VectorizedLeafStreamer(matrix, matrix,
                                         condensing=condensing)
        assert batched.num_leaves == reference.num_leaves
        np.testing.assert_array_equal(batched.leaf_weights(),
                                      reference.leaf_weights())
        plan = huffman_schedule([float(w) for w in batched.leaf_weights()],
                                ways)
        batched.bind_plan(plan)
        # Consume in plan order, as the accelerator does.
        for leaves in plan.leaf_rounds():
            for leaf in leaves:
                want_keys, want_vals = reference.leaf_stream(leaf)
                got_keys, got_vals = batched.leaf_stream(leaf)
                np.testing.assert_array_equal(want_keys, got_keys)
                np.testing.assert_array_equal(want_vals, got_vals)

    @pytest.mark.parametrize("condensing", [True, False])
    def test_unbound_streams_match_scalar(self, condensing):
        matrix = random_matrix(60, 60, 240, seed=2)
        reference = _LeafStreamer(matrix, matrix, condensing=condensing)
        batched = VectorizedLeafStreamer(matrix, matrix,
                                         condensing=condensing)
        # No bind_plan: every leaf generates on demand, out of any order.
        for leaf in reversed(range(batched.num_leaves)):
            want = reference.leaf_stream(leaf)
            got = batched.leaf_stream(leaf)
            np.testing.assert_array_equal(want[0], got[0])
            np.testing.assert_array_equal(want[1], got[1])
            assert not batched._pending

    def test_pending_products_never_span_two_rounds(self):
        matrix = random_matrix(80, 80, 320, seed=4)
        batched = VectorizedLeafStreamer(matrix, matrix, condensing=False)
        plan = huffman_schedule([float(w) for w in batched.leaf_weights()], 4)
        batched.bind_plan(plan)
        leaf_rounds = [leaves for leaves in plan.leaf_rounds() if leaves]
        assert sum(len(leaves) > 1 for leaves in leaf_rounds) > 1
        for leaves in leaf_rounds:
            for position, leaf in enumerate(leaves):
                batched.leaf_stream(leaf)
                # The first leaf generates its round and nothing more; each
                # consumed leaf is dropped.
                assert set(batched._pending) == set(leaves[position + 1:])
            assert not batched._pending


STREAMERS = {"scalar": _LeafStreamer, "batched": VectorizedLeafStreamer}


@pytest.mark.parametrize("condensing", [True, False])
@pytest.mark.parametrize("streamer", list(STREAMERS))
def test_leaves_read_every_left_nonzero_once(streamer, condensing):
    """Over all leaves, the access order names each nonzero's B row once."""
    matrix = random_matrix(50, 40, 200, seed=8)
    other = random_matrix(40, 30, 150, seed=9)
    leaves = STREAMERS[streamer](matrix, other, condensing=condensing)
    condensed = CondensedMatrix(matrix)
    assert leaves.num_leaves == (condensed.num_condensed_columns if condensing
                                 else len(np.unique(matrix.indices)))
    order = np.concatenate([leaves.leaf_access_order(leaf)
                            for leaf in range(leaves.num_leaves)])
    np.testing.assert_array_equal(np.sort(order), np.sort(matrix.indices))
    if condensing:
        # A condensed leaf reads its column's original indices by row.
        for leaf in range(leaves.num_leaves):
            np.testing.assert_array_equal(
                leaves.leaf_access_order(leaf),
                condensed.column(leaf).original_cols)
