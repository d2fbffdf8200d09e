"""Batched simulation backend (``SpArchConfig(engine="vectorized")``).

The scalar backend walks the multiply/merge hot path one Python object at a
time: :func:`~repro.hardware.multiplier_array.multiply_column`
loops over left-matrix elements and the merge tree runs a pairwise stable
tournament with one ``argsort`` per node pair.  Both are faithful to the
hardware structure but dominate the simulation runtime.

This module provides drop-in replacements that compute *exactly* the same
functional result and *exactly* the same statistics with batched numpy
kernels:

* :class:`VectorizedLeafStreamer` — partial-product generation for every
  leaf of a merge round at once with ``np.repeat`` + fancy indexing (one
  gather instead of one Python iteration per left element);
* :class:`VectorizedMergeTree` — each merge round is merged in bounded
  blocks, each block with one packed-word sort
  (:func:`repro.core.fastpath.merge_sorted_streams`) instead of the
  pairwise tournament, duplicate folding via
  :func:`repro.core.fastpath.fold_sorted_runs` (the same ``np.add.reduceat``
  kernel the scalar adder uses), and boolean-mask zero elimination.  The
  cycle, comparator-operation and root-element counters are computed in
  closed form from the input stream *lengths*, replaying the tournament
  accounting without moving any elements.

Why the results are bit-identical to the scalar backend:

* A pairwise tournament of stable two-way merges over the input list is a
  bottom-up stable mergesort, which orders equal keys by original stream
  position — exactly what a stable argsort over the concatenation
  produces, and what the packed-word sort reproduces block by block (see
  :class:`VectorizedMergeTree` for why the blocks are exact).  Since the
  merged element order matches, the duplicate folds —
  ``np.add.reduceat`` over run starts, the same kernel
  :class:`~repro.hardware.adder.AdderSlice` uses for the scalar tree —
  reduce the same value sequences with the same association and produce
  the same IEEE-754 results.
* Partial products are generated by multiplying the same operand pairs in
  the same order (``value * B[k, c]``), only batched.  Each product depends
  on its own operand pair alone, so generating a round's leaves in one pass
  gives the same bits as generating each leaf on its own.
* Every counter the scalar model accumulates per element or per node pair is
  a function of the stream lengths only, so it can be summed directly.

``"streaming"`` is a second name for this backend: both names build the
same streamer and tree.  The streamer's working set is bounded per merge
round: element grouping is O(nnz(A)) metadata built up front, and the
partial products of a round's leaves are generated when the round starts
and dropped as the round consumes them, so no more than one round's
products are live at a time.  The merge tree holds that round's streams
anyway.

``tests/integration/test_engine_equivalence.py`` enforces the equivalence
over synthetic + rMAT matrices and every ablation combination.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.condensing import (
    original_column_partial_sizes,
    partial_matrix_sizes,
)
from repro.core.fastpath import (
    fold_sorted_runs,
    merge_sorted_streams,
    row_offsets,
)
from repro.core.huffman import MergePlan
from repro.formats.condensed import CondensedMatrix
from repro.formats.convert import csr_to_csc
from repro.formats.csr import CSRMatrix
from repro.formats.keys import linear_key_dtype
from repro.hardware.merge_tree import MergeTree

#: Elements a merge block may take from one input stream: bounds the merge's
#: working set.  It tunes the simulation host only — results, counters and
#: traffic are the same for every value — so it is not configuration.
BLOCK_ELEMENTS = 1 << 16


class VectorizedLeafStreamer:
    """Batched replacement for the accelerator's scalar leaf streamer.

    Exposes the same interface (``num_leaves``, ``leaf_weights``,
    ``leaf_access_order``, ``bind_plan``, ``leaf_stream``) but pre-groups
    the left operand's elements by merge-plan leaf once, so generating any
    set of leaves is a constant number of numpy gathers.

    ``__init__`` only builds the per-leaf grouping *metadata* (element
    boundaries, left operand arrays in leaf order and per-element product
    counts — all O(nnz(A))).  Products are generated on demand: once
    :meth:`bind_plan` has named the plan's merge rounds, the first
    :meth:`leaf_stream` call of a round generates every leaf of that round
    in one batched pass, and each leaf's products are dropped when it is
    consumed.

    Args:
        matrix_a: left operand in CSR format.
        matrix_b: right operand in CSR format.
        condensing: whether a leaf is a condensed column (True) or an
            original column (False).
    """

    def __init__(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix, *,
                 condensing: bool) -> None:
        self._matrix_a = matrix_a
        self._matrix_b = matrix_b
        self._condensing = condensing
        self._b_row_nnz = matrix_b.nnz_per_row()
        self._condensed = CondensedMatrix(matrix_a) if condensing else None
        self._csc = csr_to_csc(matrix_a) if not condensing else None

        if condensing:
            # Group the stored elements by condensed column in one pass: the
            # condensed column of element p (row-major storage order) is its
            # offset within its row, and a stable sort by that offset keeps
            # rows ascending within each group — the column fetcher's order.
            row_lengths = matrix_a.nnz_per_row()
            offsets_in_row = row_offsets(matrix_a.indptr)
            order = np.argsort(offsets_in_row, kind="stable")
            num_cc = self._condensed.num_condensed_columns
            counts = np.bincount(offsets_in_row, minlength=max(num_cc, 1))
            # Element boundaries of each leaf within the leaf-grouped order.
            self._elem_starts = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(counts[:num_cc])])
            left_rows = np.repeat(
                np.arange(matrix_a.num_rows, dtype=np.int64), row_lengths)[order]
            left_cols = matrix_a.indices[order]
            left_vals = matrix_a.data[order]
            self._leaf_columns = list(range(num_cc))
        else:
            occupied = np.unique(matrix_a.indices)
            self._leaf_columns = [int(c) for c in occupied]
            # Leaf-grouped element order is exactly CSC storage order (empty
            # columns contribute no elements, so the occupied columns'
            # ranges tile the whole array).
            csc = self._csc
            self._elem_starts = np.append(csc.indptr[occupied],
                                          np.int64(csc.nnz))
            left_rows = csc.indices
            left_cols = np.repeat(np.arange(matrix_a.num_cols, dtype=np.int64),
                                  csc.nnz_per_col())
            left_vals = csc.data

        self._left_rows = left_rows
        self._left_cols = left_cols
        self._left_vals = left_vals
        # Per-element product counts and per-leaf product boundaries.  When
        # the (row, col) keyspace fits in 32 bits the keys are built as
        # int32: the products take half the key memory and the key values
        # (hence all downstream results) are unchanged; the promotion rule
        # lives in repro.formats.keys.
        counts = self._b_row_nnz[left_cols]
        self._counts = counts
        self._key_dtype = linear_key_dtype(matrix_a.num_rows,
                                           matrix_b.num_cols)
        prod_ends = np.cumsum(counts)
        products_before = np.concatenate([np.zeros(1, dtype=np.int64),
                                          prod_ends])
        self._prod_starts = products_before[self._elem_starts]
        # Leaves of the bound plan's rounds, and the generated leaves the
        # current round has not consumed yet.
        self._leaf_round: dict[int, tuple[int, ...]] = {}
        self._pending: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    def bind_plan(self, plan: MergePlan) -> None:
        """Generate products one merge round of ``plan`` at a time.

        Unbound, or for a leaf outside the plan, each leaf is generated on
        its own: the same bits, in more and smaller passes.
        """
        self._leaf_round = {leaf: leaves for leaves in plan.leaf_rounds()
                            for leaf in leaves}

    def _generate_leaves(self, leaves: tuple[int, ...]) -> None:
        """Generate the partial products of ``leaves`` in one batched pass.

        ``np.repeat`` spreads each left element over its right-matrix row,
        a fancy-indexed gather pulls the row contents, and each leaf's
        partial products end up in one contiguous slice (left elements by
        ascending row, each row's products by ascending column — the scalar
        concatenation order).
        """
        leaf_ids = np.asarray(leaves, dtype=np.int64)
        starts = self._elem_starts[leaf_ids]
        lengths = self._elem_starts[leaf_ids + 1] - starts
        # Each leaf's element range, one leaf after another.
        elem_idx = (np.arange(int(lengths.sum()), dtype=np.int64)
                    + np.repeat(starts - (np.cumsum(lengths) - lengths),
                                lengths))
        keys, vals = self._generate_products(elem_idx)
        ends = np.cumsum(self._prod_starts[leaf_ids + 1]
                         - self._prod_starts[leaf_ids]).tolist()
        for leaf, start, stop in zip(leaves, [0] + ends, ends):
            self._pending[leaf] = (keys[start:stop], vals[start:stop])

    def _generate_products(self, elem_idx: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Partial products of the given leaf-grouped element positions.

        Each element's products are ``value * B[col, :]`` with keys
        ``row * num_cols + B column`` — independent per element, so any
        batching (one merge round's leaves or a single leaf) produces
        identical bits.
        """
        matrix_b = self._matrix_b
        counts = self._counts[elem_idx]
        prod_ends = np.cumsum(counts)
        total = int(prod_ends[-1]) if len(prod_ends) else 0
        gather = (np.arange(total, dtype=np.int64)
                  + np.repeat(matrix_b.indptr[self._left_cols[elem_idx]]
                              - (prod_ends - counts), counts))
        key_dtype = self._key_dtype
        row_keys = (self._left_rows[elem_idx]
                    * matrix_b.num_cols).astype(key_dtype, copy=False)
        keys = (np.repeat(row_keys, counts)
                + matrix_b.indices[gather].astype(key_dtype, copy=False))
        vals = (np.repeat(self._left_vals[elem_idx], counts)
                * matrix_b.data[gather])
        return keys, vals

    # ------------------------------------------------------------------
    @property
    def condensed(self) -> CondensedMatrix | None:
        return self._condensed

    @property
    def num_leaves(self) -> int:
        return len(self._leaf_columns)

    # ------------------------------------------------------------------
    def leaf_weights(self) -> np.ndarray:
        """Estimated partial-matrix size of every leaf (Huffman weights)."""
        if self._condensing:
            return partial_matrix_sizes(self._condensed, self._matrix_b)
        sizes = original_column_partial_sizes(self._matrix_a, self._matrix_b)
        return sizes[self._leaf_columns]

    def leaf_access_order(self, leaf: int) -> np.ndarray:
        """Right-matrix rows needed by this leaf, in consumption order."""
        start, stop = self._elem_starts[leaf], self._elem_starts[leaf + 1]
        return self._left_cols[start:stop].copy()

    def leaf_stream(self, leaf: int) -> tuple[np.ndarray, np.ndarray]:
        """Return one leaf's sorted (key, value) partial-product stream.

        Generates the leaf's whole merge round if the leaf is not pending
        yet.  The returned arrays are popped, so once the round has
        consumed every leaf nothing of it stays pending.
        """
        if leaf not in self._pending:
            self._generate_leaves(self._leaf_round.get(leaf, (leaf,)))
        return self._pending.pop(leaf)


class VectorizedMergeTree(MergeTree):
    """Merge tree with a blocked batched merge and closed-form counters.

    The batched engine runs this tree.  Each round is merged and folded in
    bounded blocks: a block takes every element up to a key *cutoff* from
    every input stream, merges them with the packed-word sort of
    :func:`~repro.core.fastpath.merge_sorted_streams` (equal keys keep
    input-list order, matching the pairwise stable tournament), folds
    duplicates with the shared :func:`~repro.core.fastpath.fold_sorted_runs`
    kernel and drops zeros with a boolean mask.  The layer mergers'
    counters are replayed from the stream lengths alone, so ``stats`` (and
    the shared layer mergers' / adder's counters) match the scalar tree
    exactly.

    Why the blocked merge is exact:

    * Only a stream with more than ``block_elements`` elements left may set
      the cutoff: the smallest key ``block_elements`` positions ahead over
      those streams.  *Every* element ``≤ cutoff`` is taken from *every*
      stream via ``searchsorted(side="right")``, so later blocks hold
      strictly greater keys only.  Concatenating the per-block outputs
      therefore reproduces the globally sorted order, and no equal-key run
      straddles a block boundary — each block folds exactly the runs the
      global fold would, with the same association, and the per-block
      adder counters sum to the global ones.
    * When no stream has more than ``block_elements`` elements left, the
      block takes everything that is left.
    * Within a block the drained slices are concatenated in ascending
      stream order, so ties break exactly as in one stable sort of the
      whole round.
    * The stream that sets the cutoff advances by at least
      ``block_elements`` elements, so every round finishes.  A block takes
      at most ``block_elements`` elements from a stream whose keys are
      distinct (leaf streams and folded rounds always are), so the sort
      working set is bounded by ``block_elements`` × active streams.

    Args:
        block_elements: elements a block may take from one stream (≥ 1);
            :data:`BLOCK_ELEMENTS`, read when the tree is built, by default
            (the accelerator always uses the default).  Results and
            counters are the same for every value.
    """

    def __init__(self, num_layers: int = 6, merger_width: int = 16,
                 chunk_size: int = 4, *,
                 block_elements: int | None = None) -> None:
        super().__init__(num_layers=num_layers, merger_width=merger_width,
                         chunk_size=chunk_size)
        if block_elements is None:
            block_elements = BLOCK_ELEMENTS
        self._block_elements = max(1, int(block_elements))

    def merge(self, streams: list[tuple[np.ndarray, np.ndarray]]
              ) -> tuple[np.ndarray, np.ndarray]:
        if len(streams) > self.num_ways:
            raise ValueError(
                f"cannot merge {len(streams)} streams on a {self.num_ways}-way tree"
            )
        # Input streams must be key-sorted: the block cutoffs are found by
        # binary search.  Unlike the scalar tree this does not check it, as
        # the accelerator only ever feeds it streams that are sorted by
        # construction (multiplier output and previously folded rounds);
        # the scalar tree is the validating reference.
        cleaned: list[tuple[np.ndarray, np.ndarray]] = []
        for keys, values in streams:
            if not (isinstance(keys, np.ndarray)
                    and keys.dtype.kind == "i"):  # keep int32 keys as-is
                keys = np.asarray(keys, dtype=np.int64)
            values = np.asarray(values, dtype=np.float64)
            if len(keys) != len(values):
                raise ValueError("keys and values must have equal length")
            cleaned.append((keys, values))
        if not cleaned:
            return np.empty(0, dtype=np.int64), np.empty(0)

        self.account([len(keys) for keys, _ in cleaned])
        out_keys, out_vals = self._merge_blocks(cleaned)
        self.stats.additions = self._adder.stats.additions
        return out_keys, out_vals

    def account(self, lengths: list[int]) -> None:
        """Charge one pass's merger counters from its stream lengths alone.

        Cycles, comparator operations and root elements are what
        :meth:`merge` counts without looking at keys, so a recorded pass
        can be priced under another merger geometry without moving an
        element (:meth:`repro.core.accelerator.SpArch.price`).

        Args:
            lengths: the input stream lengths of one pass (at least one).
        """
        total_elements = self._account_tournament(lengths)
        self.stats.comparator_ops = sum(
            m.stats.comparator_ops for m in self._layer_mergers
        )
        root_cycles = (-(-total_elements // self._merger_width)
                       if total_elements else 0)
        self.stats.cycles += root_cycles + self._num_layers

    # ------------------------------------------------------------------
    def _account_tournament(self, lengths: list[int]) -> int:
        """Replay the pairwise tournament counters from lengths only.

        Returns the element count entering the root, which bounds the
        round's cycle count.
        """
        current = list(lengths)
        layer = 0
        while len(current) > 1:
            merger = self._layer_mergers[min(layer, self._num_layers - 1)]
            width = merger.throughput
            num_comparators = merger.num_comparators
            next_level: list[int] = []
            layer_cycles = 0
            for i in range(0, len(current), 2):
                if i + 1 >= len(current):
                    next_level.append(current[i])
                    continue
                total = current[i] + current[i + 1]
                layer_cycles += -(-total // width) if total else 0
                next_level.append(total)
            merger.stats.comparator_ops += layer_cycles * num_comparators
            current = next_level
            layer += 1
        total_elements = current[0]
        self.stats.elements_into_root += total_elements
        return total_elements

    def _blocks(self, streams: list[tuple[np.ndarray, np.ndarray]]
                ) -> Iterator[tuple[list[np.ndarray], list[np.ndarray]]]:
        """Yield each block of a round as ``(key_parts, value_parts)``.

        One slice per stream that contributes to the block, in stream
        order; the cutoff rule is described in the class docstring.
        """
        block = self._block_elements
        pending = [(keys, vals, 0) for keys, vals in streams if len(keys)]
        while pending:
            ends = [int(keys[start + block - 1]) for keys, _, start in pending
                    if len(keys) - start > block]
            cutoff = min(ends) if ends else None
            key_parts: list[np.ndarray] = []
            value_parts: list[np.ndarray] = []
            rest = []
            for keys, vals, start in pending:
                stop = (len(keys) if cutoff is None
                        else int(np.searchsorted(keys, cutoff, side="right")))
                if stop > start:
                    key_parts.append(keys[start:stop])
                    value_parts.append(vals[start:stop])
                if stop < len(keys):
                    rest.append((keys, vals, stop))
            pending = rest
            yield key_parts, value_parts

    def _merge_blocks(self, streams: list[tuple[np.ndarray, np.ndarray]]
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Merge, fold and zero-eliminate one round block by block.

        Updates the adder counters for the processed elements.
        """
        adder_stats = self._adder.stats
        key_dtype = np.result_type(*[keys.dtype for keys, _ in streams])
        out_key_parts: list[np.ndarray] = []
        out_val_parts: list[np.ndarray] = []
        for key_parts, value_parts in self._blocks(streams):
            if len(key_parts) == 1:
                block_keys, block_vals = key_parts[0], value_parts[0]
            else:
                block_keys, block_vals = merge_sorted_streams(key_parts,
                                                              value_parts)
            folded_keys, folded_vals, num_runs = fold_sorted_runs(block_keys,
                                                                  block_vals)
            adder_stats.additions += len(block_keys) - num_runs
            if len(folded_keys):
                out_key_parts.append(folded_keys)
                out_val_parts.append(folded_vals)

        if not out_key_parts:
            return np.empty(0, dtype=key_dtype), np.empty(0)
        if len(out_key_parts) == 1:
            out_keys, out_vals = out_key_parts[0], out_val_parts[0]
        else:
            out_keys = np.concatenate(out_key_parts)
            out_vals = np.concatenate(out_val_parts)
        return out_keys.astype(key_dtype, copy=False), out_vals
