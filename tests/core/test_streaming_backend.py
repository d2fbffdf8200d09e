"""Unit tests for the batched engine's building blocks.

The end-to-end contract (batched == scalar) lives in
``tests/integration/test_engine_equivalence.py`` and the block-size
property test; this module exercises the pieces in isolation — the banded
merge+fold of :class:`VectorizedMergeTree` against the scalar tree, rounds
that mix pending leaves with materialised streams, the pending leaves
against the scalar ``_LeafStreamer``, the working set of one round, and
the band workspaces that merge rounds borrow.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest

import repro.core.vectorized as vectorized
from repro.core.accelerator import SpArch, _LeafStreamer
from repro.core.config import SpArchConfig
from repro.core.fastpath import row_offsets
from repro.core.partial_matrix import PartialMatrixWriter
from repro.core.vectorized import (
    LeafProducts,
    VectorizedLeafStreamer,
    VectorizedMergeTree,
)
from repro.formats.condensed import CondensedMatrix
from repro.formats.csr import CSRMatrix
from repro.hardware.merge_tree import MergeTree
from repro.memory.traffic import TrafficCategory, TrafficCounter
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


def band_parts(tree, streams):
    """Each band of a round as ``(key_parts, value_parts)``, one per stream.

    A band's arrays are views of the round's workspace, valid until the
    next band, so each slice is copied out.
    """
    for keys, values, bounds in tree._bands(streams,
                                            vectorized._BandWorkspace()):
        yield ([keys[start:stop].copy()
                for start, stop in zip(bounds, bounds[1:])],
               [values[start:stop].copy()
                for start, stop in zip(bounds, bounds[1:])])


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

    def test_unsorted_array_streams_are_refused(self):
        """An unsorted array stream raises, as in the scalar tree.

        The band cutoffs are binary searches, so an unchecked unsorted
        stream could stall the band loop or come out unsorted.  Each draw
        runs on a daemon thread joined with a timeout, so a stall fails
        this test instead of the suite.
        """
        rng = np.random.default_rng(27)
        checked = 0
        while checked < 300:
            unsorted = rng.integers(0, 16, size=int(rng.integers(2, 10)))
            if np.all(unsorted[1:] >= unsorted[:-1]):
                continue  # sorted by chance
            ordered = np.sort(rng.integers(0, 16,
                                           size=int(rng.integers(0, 10))))
            streams = [(unsorted, rng.standard_normal(len(unsorted))),
                       (ordered, rng.standard_normal(len(ordered)))]
            if rng.integers(2):
                streams.reverse()
            tree = VectorizedMergeTree(num_layers=2,
                                       block_elements=int(rng.integers(1, 4)))
            outcome = []

            def merge(tree=tree, streams=streams, outcome=outcome):
                try:
                    tree.merge(streams)
                except ValueError as exc:
                    outcome.append(str(exc))
                else:
                    outcome.append(None)

            thread = threading.Thread(target=merge, daemon=True)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive(), f"merge of {streams} stalled"
            assert outcome == ["merge tree inputs must be key-sorted"], streams
            checked += 1

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


def hub_operands(num_cols, seed=0):
    """``A`` (30 × 20) and ``B`` (20 × ``num_cols``) for mixed-round tests.

    * B row 0 is a hub: all 25 palette columns, so one left element in
      column 0 makes more products than a small band takes;
    * B row 19 is empty, and only A row 5 reaches condensed column 7, with
      its last element in column 19: leaf 7 has no products;
    * B uses the 25 palette columns only, so products collide across
      leaves.
    """
    rng = np.random.default_rng(seed)
    palette = np.arange(25, dtype=np.int64) * (num_cols // 25)
    b_rows = [palette,
              *[np.sort(rng.choice(palette, size=int(rng.integers(1, 6)),
                                   replace=False)) for _ in range(18)],
              palette[:0]]
    a_rows = [np.sort(rng.choice(19, size=int(rng.integers(1, 8)),
                                 replace=False)) for _ in range(30)]
    a_rows[5] = np.array([0, 3, 5, 8, 11, 14, 17, 19])

    def csr(rows, shape):
        indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
        indices = np.concatenate(rows).astype(np.int64)
        return CSRMatrix(indptr, indices, rng.standard_normal(len(indices)),
                         shape)

    return csr(a_rows, (30, 20)), csr(b_rows, (20, num_cols))


def mixed_round(matrix_a, matrix_b, order_seed):
    """One round's streams two ways: ``(batched, scalar)``.

    Leaves 0, 3, 6 and 7 stay pending in the batched round; leaves 1–2 and
    4–5 arrive materialised, each pair merged by the scalar tree as a
    spilled round would be.  The streams are shuffled, so stream position
    differs from leaf order.
    """
    batched = VectorizedLeafStreamer(matrix_a, matrix_b, condensing=True)
    reference = _LeafStreamer(matrix_a, matrix_b, condensing=True)
    assert batched.num_leaves == 8 and len(batched.leaf_stream(7)[0]) == 0
    pairs = []
    for group in ([0], [1, 2], [3], [4, 5], [6], [7]):
        scalar = [reference.leaf_stream(leaf) for leaf in group]
        if len(group) == 1:
            pairs.append((batched.leaf_stream(group[0]), scalar[0]))
        else:
            spilled = MergeTree(num_layers=1).merge(scalar)
            pairs.append((spilled, spilled))
    order = np.random.default_rng(order_seed).permutation(len(pairs))
    return [pairs[i][0] for i in order], [pairs[i][1] for i in order]


def same_bits(got, want):
    """Equal keys and bit-identical values."""
    np.testing.assert_array_equal(got[0], want[0])
    assert np.asarray(got[1]).tobytes() == np.asarray(want[1]).tobytes()


def run_both(matrix_a, matrix_b, config, block):
    """The scalar and batched multiplies, checked equal in every output."""
    reference = SpArch(config.replace(engine="scalar")).multiply(matrix_a,
                                                                 matrix_b)
    with mock.patch.object(vectorized, "BLOCK_ELEMENTS", block):
        batched = SpArch(config.replace(engine="vectorized")).multiply(
            matrix_a, matrix_b)
    assert batched.stats == reference.stats
    np.testing.assert_array_equal(batched.matrix.indptr,
                                  reference.matrix.indptr)
    same_bits((batched.matrix.indices, batched.matrix.data),
              (reference.matrix.indices, reference.matrix.data))
    return reference, batched


BANDS = [1, 3, 16, 10**9]
#: Right-operand widths whose 30-row keyspace needs int32 and int64 keys.
KEYSPACES = {"int32": 25, "int64": 2**31 // 30 + 25}


class TestBands:
    """Rounds that mix pending leaves with materialised streams."""

    @pytest.mark.parametrize("keyspace", list(KEYSPACES))
    @pytest.mark.parametrize("block", BANDS)
    def test_mixed_rounds_match_the_scalar_tree(self, block, keyspace):
        num_cols = KEYSPACES[keyspace]
        matrix_a, matrix_b = hub_operands(num_cols)
        streamer = VectorizedLeafStreamer(matrix_a, matrix_b, condensing=True)
        assert streamer.key_dtype == np.dtype(keyspace)
        shape = (30, num_cols)
        for order_seed in range(3):
            batched, scalar = mixed_round(matrix_a, matrix_b, order_seed)
            reference = MergeTree(num_layers=3)
            want = reference.merge(scalar)
            tree = VectorizedMergeTree(num_layers=3, block_elements=block)
            same_bits(tree.merge(batched), want)
            assert_same_counters(tree, reference)

            # The last round writes its bands straight into the result.
            tree = VectorizedMergeTree(num_layers=3, block_elements=block)
            writer = PartialMatrixWriter(TrafficCounter())
            got = tree.merge(batched, write=partial(writer.write_bands,
                                                    shape=shape))
            expected = PartialMatrixWriter(TrafficCounter()).write_result(
                *want, shape)
            np.testing.assert_array_equal(got.indptr, expected.indptr)
            same_bits((got.indices, got.data),
                      (expected.indices, expected.data))
            assert_same_counters(tree, reference)

    @pytest.mark.parametrize("block", [1, 3, 16, 50])
    def test_bands_take_at_most_block_elements_per_stream(self, block):
        # Values tag the streams: leaf c's products are all c + 1 (A holds
        # condensed column + 1, B only ones), array i's values 100 + i.
        matrix_a, matrix_b = hub_operands(25)
        matrix_a.data[:] = row_offsets(matrix_a.indptr) + 1
        matrix_b.data[:] = 1.0
        streamer = VectorizedLeafStreamer(matrix_a, matrix_b, condensing=True)
        reference = _LeafStreamer(matrix_a, matrix_b, condensing=True)
        rng = np.random.default_rng(block)
        tagged = [(streamer.leaf_stream(leaf), leaf + 1.0,
                   reference.leaf_stream(leaf)[0]) for leaf in range(8)]
        for i in range(4):
            keys = np.sort(rng.choice(750, size=120, replace=False))
            tagged.append(((keys, np.full(len(keys), 100.0 + i)), 100.0 + i,
                           keys))
        tagged = [tagged[i] for i in rng.permutation(len(tagged))]
        # With pending leaves a row is 25 keys; with arrays only, one key.
        rounds = [(tagged, 25),
                  ([entry for entry in tagged
                    if not isinstance(entry[0][0], LeafProducts)], 1)]
        for round_tagged, width in rounds:
            position = {tag: where
                        for where, (_, tag, _) in enumerate(round_tagged)}
            taken = {tag: [] for tag in position}
            tree = VectorizedMergeTree(num_layers=4, block_elements=block)
            previous_top = None
            longest = 0
            for key_parts, value_parts in band_parts(
                    tree, [stream for stream, _, _ in round_tagged]):
                rows = [part // width for part in key_parts]
                cutoff = max(int(part_rows[-1]) for part_rows in rows)
                for part_rows in rows:
                    # Past its first block elements a slice holds only the
                    # rest of the cutoff row.
                    assert (len(part_rows) <= block
                            or np.all(part_rows[block - 1:] == cutoff))
                    longest = max(longest, len(part_rows))
                # Later bands hold strictly greater rows only.
                if previous_top is not None:
                    assert min(int(part_rows[0]) for part_rows in rows) \
                        > previous_top
                previous_top = cutoff
                # Slices come in stream order, each from one stream.
                tags = [float(values[0]) for values in value_parts]
                assert tags == sorted(tags, key=position.get)
                for part, values, tag in zip(key_parts, value_parts, tags):
                    assert np.all(values == tag)
                    taken[tag].append(part)
            # The bands cover every stream exactly once, in order.
            for _, tag, keys in round_tagged:
                np.testing.assert_array_equal(
                    np.concatenate([keys[:0], *taken[tag]]), keys)
            if width > 1 and block < 25:
                assert longest > block  # the hub row overran a band

    @pytest.mark.parametrize("block", BANDS)
    def test_full_cancellation(self, block):
        # Every row of A is (v, -v) and B's two rows are equal.
        values = np.array([2.0, 1.5, -0.25, 3.0])
        matrix_a = CSRMatrix.from_dense(np.stack([values, -values], axis=1))
        matrix_b = CSRMatrix.from_dense(np.tile([0.5, 0.0, 7.0, -1.0], (2, 1)))
        _, batched = run_both(matrix_a, matrix_b, SpArchConfig(), block)
        assert batched.matrix.nnz == 0
        assert batched.stats.additions == 12

    @pytest.mark.parametrize("block", BANDS)
    def test_one_leaf_plan(self, block):
        # At most one element per row of A: one condensed column.
        matrix_a = CSRMatrix(np.r_[0, np.cumsum(np.arange(40) % 3 > 0)],
                             (7 * np.flatnonzero(np.arange(40) % 3)) % 40,
                             np.linspace(1.0, 2.0, 26), (40, 40))
        matrix_b = random_matrix(40, 30, 400, seed=6)
        _, batched = run_both(matrix_a, matrix_b, SpArchConfig(), block)
        assert batched.stats.num_partial_matrices == 1
        assert batched.matrix.nnz > 0

    @pytest.mark.parametrize("block", BANDS)
    def test_two_phase_dataflow_generates_band_by_band(self, block,
                                                       monkeypatch):
        events = []
        real_bands = VectorizedMergeTree._bands
        real_generate = VectorizedLeafStreamer._generate_into

        def spy_bands(tree, streams, workspace):
            for keys, values, bounds in real_bands(tree, streams, workspace):
                events.append(("band", keys.min(), keys.max()))
                yield keys, values, bounds

        def spy_generate(streamer, leaves, keys, values, positions):
            real_generate(streamer, leaves, keys, values, positions)
            before = streamer.products_before
            events.append(("generate", np.concatenate(
                [keys[:0], *[keys[offset:offset + before[stop]
                                  - before[start]]
                             for start, stop, offset in leaves]])))

        monkeypatch.setattr(VectorizedMergeTree, "_bands", spy_bands)
        monkeypatch.setattr(VectorizedLeafStreamer, "_generate_into",
                            spy_generate)
        matrix = random_matrix(80, 80, 480, seed=4)
        config = SpArchConfig(enable_pipelined_merge=False,
                              merge_tree_layers=2)
        reference, batched = run_both(matrix, matrix, config, block)
        assert (batched.stats.traffic.by_category()
                == reference.stats.traffic.by_category())
        # Beyond the pipelined run's spills, every product makes one DRAM
        # round trip.
        pipelined = SpArch(config.replace(enable_pipelined_merge=True)
                           ).multiply(matrix, matrix).stats.traffic
        round_trips = batched.stats.multiplications * config.element_bytes
        for category in (TrafficCategory.PARTIAL_WRITE,
                         TrafficCategory.PARTIAL_READ):
            assert (batched.stats.traffic.bytes_by_category[category]
                    - pipelined.bytes_by_category[category]) == round_trips
        # Each generation feeds the band that follows it, and no other.
        assert any(kind == "generate" for kind, *_ in events)
        for event, following in zip(events, events[1:] + [("end",)]):
            if event[0] == "generate":
                assert following[0] == "band"
                if len(event[1]):
                    assert following[1] <= event[1].min()
                    assert event[1].max() <= following[2]


class TestBatchedLeafStreamer:
    """The batched streamer's pending leaves against ``_LeafStreamer``."""

    @pytest.mark.parametrize("condensing", [True, False])
    @pytest.mark.parametrize("block", [1, 7, 10**9])
    def test_pending_leaves_generate_the_scalar_streams(self, condensing,
                                                        block):
        matrix = generate_rmat(RMATConfig(num_rows=120, edge_factor=4,
                                          seed=5))
        reference = _LeafStreamer(matrix, matrix, condensing=condensing)
        batched = VectorizedLeafStreamer(matrix, matrix,
                                         condensing=condensing)
        assert batched.num_leaves == reference.num_leaves
        np.testing.assert_array_equal(batched.leaf_weights(),
                                      reference.leaf_weights())
        tree = VectorizedMergeTree(num_layers=2, block_elements=block)
        for leaf in reversed(range(batched.num_leaves)):
            pending, values = batched.leaf_stream(leaf)
            want_keys, want_vals = reference.leaf_stream(leaf)
            assert values is None and len(pending) == len(want_keys)
            bands = list(band_parts(tree, [(pending, None)]))
            same_bits(
                (np.concatenate([want_keys[:0],
                                 *[keys for parts, _ in bands
                                   for keys in parts]]),
                 np.concatenate([want_vals[:0],
                                 *[vals for _, parts in bands
                                   for vals in parts]])),
                (want_keys, want_vals))


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


def test_a_round_holds_one_band_beside_its_result(monkeypatch):
    """A one-round multiply's traced peak stays near its result's size.

    The result's CSR arrays fill band by band, so beyond them the round
    holds one band's products and the band workspace.  Materialising the
    round instead (before band streaming) measured 3.3× the result's bytes
    here; bands measured 1.9×, and with the workspace grown during the
    multiply, as here, 2.1×.
    """
    matrix = random_matrix(50_000, 50_000, 400_000, seed=1)
    accelerator = SpArch(SpArchConfig(engine="vectorized"))
    # No idle workspace, so the peak counts a cold one's growth whatever
    # ran in this process before.
    monkeypatch.setattr(vectorized, "_IDLE_WORKSPACES", [])
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        dataflow = accelerator.run_dataflow(matrix, matrix)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert dataflow.stats.num_merge_rounds == 1
    result = dataflow.matrix
    result_bytes = (result.indptr.nbytes + result.indices.nbytes
                    + result.data.nbytes)
    assert peak / result_bytes < 2.5


class TestBandWorkspace:
    """Merge rounds borrow idle workspaces and give them back."""

    def test_threads_multiplying_at_once_match_serial_runs(self,
                                                           monkeypatch):
        # Small bands make every round many bands, and a short switch
        # interval interleaves the threads between them: a workspace shared
        # by rounds that run at once would mix their bands.
        monkeypatch.setattr(vectorized, "_IDLE_WORKSPACES", [])
        operands = [generate_rmat(RMATConfig(num_rows=200, edge_factor=6,
                                             seed=seed)) for seed in range(3)]
        config = SpArchConfig(engine="vectorized", merge_tree_layers=2)
        with mock.patch.object(vectorized, "BLOCK_ELEMENTS", 8):
            serial = [SpArch(config).multiply(matrix, matrix)
                      for matrix in operands]
            barrier = threading.Barrier(len(operands))
            concurrent = [None] * len(operands)

            def multiply(index):
                barrier.wait(timeout=60)
                matrix = operands[index]
                concurrent[index] = SpArch(config).multiply(matrix, matrix)

            # Daemon threads: mixed bands can leave a round that never ends.
            threads = [threading.Thread(target=multiply, args=(index,),
                                        daemon=True)
                       for index in range(len(operands))]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(concurrent, serial):
            assert got.stats == want.stats
            np.testing.assert_array_equal(got.matrix.indptr,
                                          want.matrix.indptr)
            same_bits((got.matrix.indices, got.matrix.data),
                      (want.matrix.indices, want.matrix.data))
        # One workspace per round that ran at once, all given back.
        assert 1 <= len(vectorized._IDLE_WORKSPACES) <= len(operands)

    def test_threads_merging_in_turn_keep_one_workspace(self, monkeypatch):
        monkeypatch.setattr(vectorized, "_IDLE_WORKSPACES", [])
        matrix = generate_rmat(RMATConfig(num_rows=200, edge_factor=6,
                                          seed=1))
        accelerator = SpArch(SpArchConfig(engine="vectorized"))
        for _ in range(4):
            thread = threading.Thread(target=accelerator.multiply,
                                      args=(matrix, matrix), daemon=True)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(vectorized._IDLE_WORKSPACES) == 1

    def test_a_second_multiply_grows_no_buffer(self, monkeypatch):
        monkeypatch.setattr(vectorized, "_IDLE_WORKSPACES", [])
        matrix = generate_rmat(RMATConfig(num_rows=300, edge_factor=8,
                                          seed=2))
        accelerator = SpArch(SpArchConfig(engine="vectorized"))

        def buffers():
            [workspace] = vectorized._IDLE_WORKSPACES
            return [workspace.keys, workspace.values, workspace.positions,
                    workspace.gathered]

        accelerator.multiply(matrix, matrix)
        first = buffers()
        accelerator.multiply(matrix, matrix)
        assert all(len(buffer) for buffer in first)
        assert all(now is then for now, then in zip(buffers(), first))
        np.testing.assert_array_equal(first[2], np.arange(len(first[2])))
