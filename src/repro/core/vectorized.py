"""Batched simulation backend (``SpArchConfig(engine="vectorized")``).

The scalar backend walks the multiply/merge hot path one Python object at a
time: :func:`~repro.hardware.multiplier_array.multiply_column`
loops over left-matrix elements and the merge tree runs a pairwise stable
tournament with one ``argsort`` per node pair.  Both are faithful to the
hardware structure but dominate the simulation runtime.

This module provides drop-in replacements that compute *exactly* the same
functional result and *exactly* the same statistics with batched numpy
kernels:

* :class:`VectorizedLeafStreamer` — hands each leaf to the merge tree as
  :class:`LeafProducts`, a pending stream whose partial products are
  generated band by band with ``np.repeat`` + ``np.take`` (one gather
  instead of one Python iteration per left element);
* :class:`VectorizedMergeTree` — each merge round is processed in row
  bands: a band's products are generated into the round's band
  workspace, merged there with one packed-word sort
  (:func:`repro.core.fastpath.sort_pairs_in_place`) instead of the
  pairwise tournament, folded via
  :func:`repro.core.fastpath.fold_sorted_runs` (the same ``np.add.reduceat``
  kernel the scalar adder uses) and written out before the next band
  starts.  The cycle, comparator-operation and root-element counters are
  computed in closed form from the input stream *lengths*, replaying the
  tournament accounting without moving any elements.

Why the results are bit-identical to the scalar backend:

* A pairwise tournament of stable two-way merges over the input list is a
  bottom-up stable mergesort, which orders equal keys by original stream
  position — exactly what a stable argsort over the concatenation
  produces, and what the packed-word sort reproduces band by band (see
  :class:`VectorizedMergeTree` for why the bands are exact).  Since the
  merged element order matches, the duplicate folds —
  ``np.add.reduceat`` over run starts, the same kernel
  :class:`~repro.hardware.adder.AdderSlice` uses for the scalar tree —
  reduce the same value sequences with the same association and produce
  the same IEEE-754 results.
* Partial products are generated by multiplying the same operand pairs in
  the same order (``value * B[k, c]``), only batched.  Each product depends
  on its own operand pair alone, so generating a band of several leaves in
  one pass gives the same bits as generating each leaf on its own.
* Every counter the scalar model accumulates per element or per node pair is
  a function of the stream lengths only, so it can be summed directly.

The working set is bounded per band: element grouping is O(nnz(A))
metadata built up front, a leaf's products exist only while the band that
takes them is merged, and a round's output fills one buffer (or, in the
last round, the result's CSR arrays) band by band.  Each band is laid out,
sorted and gathered in a workspace of four buffers that a merge round
borrows from a process-wide idle list and gives back when it ends; the
buffers grow to the largest band merged in them and are kept for the next
round, so the merge does not fault fresh pages in band after band.

``tests/integration/test_engine_equivalence.py`` enforces the equivalence
over synthetic + rMAT matrices and every ablation combination.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager

import numpy as np

from repro.core.condensing import (
    original_column_partial_sizes,
    partial_matrix_sizes,
)
from repro.core.fastpath import (
    fold_sorted_runs,
    row_offsets,
    sort_pairs_in_place,
)
from repro.formats.condensed import CondensedMatrix
from repro.formats.convert import csr_to_csc
from repro.formats.csr import CSRMatrix
from repro.formats.keys import linear_key_dtype
from repro.hardware.merge_tree import MergeTree

#: Products a merge band may take from one input stream, beyond the rest of
#: its cutoff row: bounds the merge's working set.  It tunes the simulation
#: host only — results, counters and traffic are the same for every value —
#: so it is not configuration.
BLOCK_ELEMENTS = 1 << 16


class LeafProducts:
    """A leaf's partial products, not generated yet.

    :meth:`VectorizedLeafStreamer.leaf_stream` returns one in place of the
    leaf's key array, and :class:`VectorizedMergeTree` generates its
    products one band at a time.  ``len()`` is the product count, so a
    round's stream lengths, and every counter they fix, are known before
    any product exists.

    Attributes:
        streamer: the streamer whose left-operand elements the leaf covers.
        start: the leaf's first element in the streamer's leaf-grouped
            order.
        stop: one past the leaf's last element.
    """

    __slots__ = ("streamer", "start", "stop", "_count")

    def __init__(self, streamer: VectorizedLeafStreamer, start: int,
                 stop: int) -> None:
        self.streamer = streamer
        self.start = start
        self.stop = stop
        before = streamer.products_before
        self._count = int(before[stop] - before[start])

    @property
    def dtype(self) -> np.dtype:
        return self.streamer.key_dtype

    def __len__(self) -> int:
        return self._count


class VectorizedLeafStreamer:
    """Batched replacement for the accelerator's scalar leaf streamer.

    Exposes the same interface (``num_leaves``, ``leaf_weights``,
    ``leaf_access_order``, ``leaf_stream``) but pre-groups the left
    operand's elements by merge-plan leaf once, so generating the products
    of any set of element ranges is a constant number of numpy gathers.

    ``__init__`` only builds the per-leaf grouping *metadata* (element
    boundaries, left operand arrays in leaf order and per-element product
    offsets — all O(nnz(A))).  :meth:`leaf_stream` returns a pending
    :class:`LeafProducts`; the merge tree generates its products with
    :meth:`_generate_into`, one band at a time.

    A leaf holds at most one element per left-operand row, in ascending row
    order: a condensed column takes one element from each row, and an
    original column is one CSC column.  So a leaf's stream is one run of
    products per row, and cutting its element range cuts the stream at a
    row boundary.

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
            # Cast to the narrowest unsigned type that holds every offset:
            # numpy's stable sort is a radix sort on 16-bit keys, and a
            # stable sort's permutation is the same for any key type.
            row_lengths = matrix_a.nnz_per_row()
            offsets_in_row = row_offsets(matrix_a.indptr)
            num_cc = self._condensed.num_condensed_columns
            narrow = np.uint16 if num_cc <= 1 << 16 else np.uint32
            order = np.argsort(offsets_in_row.astype(narrow), kind="stable")
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

        #: Left-operand row of every element, in leaf-grouped order.
        self.element_rows = left_rows
        self._left_cols = left_cols
        self._left_vals = left_vals
        # Per-element product counts and offsets.  When the (row, col)
        # keyspace fits in 32 bits the keys are built as int32: the products
        # take half the key memory and the key values (hence all downstream
        # results) are unchanged; the promotion rule lives in
        # repro.formats.keys.
        counts = self._b_row_nnz[left_cols]
        self._counts = counts
        self.key_dtype = linear_key_dtype(matrix_a.num_rows,
                                          matrix_b.num_cols)
        #: Products of the elements before each element, and in total last.
        self.products_before = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)])

    # ------------------------------------------------------------------
    def _generate_into(self, leaves: np.ndarray, keys: np.ndarray,
                       values: np.ndarray, positions: np.ndarray) -> None:
        """Write the partial products of pending leaves' element ranges.

        Row ``(start, stop, offset)`` of ``leaves`` is one leaf's
        leaf-grouped elements ``[start, stop)``, whose products go to
        ``keys[offset:]`` and ``values[offset:]``; the rows come in stream
        order.  Each element's products are ``value * B[col, :]`` with keys
        ``row * num_cols + B column``, elements in order and each row's
        products by ascending column — the scalar concatenation order.
        Products are independent per element, so any batching produces
        identical bits.

        ``np.repeat`` spreads each element over its right-matrix row, and
        ``np.take`` gathers the row contents straight into the band; leaves
        whose destinations adjoin share one gather.  ``positions`` holds
        ``0, 1, 2, ...`` for at least as many entries as there are products.
        """
        matrix_b = self._matrix_b
        starts, stops, offsets = leaves.T
        lengths = stops - starts
        ends = np.cumsum(lengths)
        elements = (np.arange(int(ends[-1]), dtype=np.int64)
                    + np.repeat(starts - (ends - lengths), lengths))
        counts = self._counts[elements]
        prod_ends = np.cumsum(counts)
        # (source range in the generated order, destination) per run of
        # leaves whose destinations adjoin.
        before = self.products_before
        sources = np.concatenate([np.zeros(1, dtype=np.int64),
                                  np.cumsum(before[stops] - before[starts])])
        adjoin = offsets[1:] == offsets[:-1] + np.diff(sources[:-1])
        firsts = [0, *(np.flatnonzero(~adjoin) + 1).tolist()]
        copies = [(int(sources[first]), int(sources[last]),
                   int(offsets[first]))
                  for first, last in zip(firsts, firsts[1:] + [len(leaves)])]

        total = int(sources[-1])
        gather = np.repeat(matrix_b.indptr[self._left_cols[elements]]
                           - (prod_ends - counts), counts)
        gather += positions[:total]
        # The gather indices are in range, so "clip" never clips; unlike the
        # default mode it writes ``out`` without a buffered copy.
        for low, high, offset in copies:
            np.take(matrix_b.indices, gather[low:high],
                    out=keys[offset:offset + high - low], mode="clip")
            np.take(matrix_b.data, gather[low:high],
                    out=values[offset:offset + high - low], mode="clip")
        del gather
        row_keys = np.repeat(self.element_rows[elements] * matrix_b.num_cols,
                             counts)
        for low, high, offset in copies:
            band_keys = keys[offset:offset + high - low]
            np.add(band_keys, row_keys[low:high], out=band_keys)
        del row_keys
        left_values = np.repeat(self._left_vals[elements], counts)
        for low, high, offset in copies:
            band_values = values[offset:offset + high - low]
            np.multiply(left_values[low:high], band_values, out=band_values)

    # ------------------------------------------------------------------
    @property
    def condensed(self) -> CondensedMatrix | None:
        return self._condensed

    @property
    def num_leaves(self) -> int:
        return len(self._leaf_columns)

    @property
    def row_width(self) -> int:
        """Keys per result row: ``key = row * row_width + column``."""
        return self._matrix_b.num_cols

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

    def leaf_stream(self, leaf: int) -> tuple[LeafProducts, None]:
        """Return one leaf's pending stream as ``(LeafProducts, None)``.

        Nothing is generated here: :class:`VectorizedMergeTree` generates
        the products band by band when a round merges the leaf.
        """
        return LeafProducts(self, int(self._elem_starts[leaf]),
                            int(self._elem_starts[leaf + 1])), None


class VectorizedMergeTree(MergeTree):
    """Merge tree that streams each round in row bands, closed-form counters.

    The batched engine runs this tree.  A round's input streams are key
    arrays, or :class:`LeafProducts` whose products do not exist yet.  The
    round is processed in bands: a band takes every element of the rows up
    to a *cutoff* row from every stream, generates the pending leaves'
    products of those rows into the round's band workspace, merges the
    band there with the packed-word sort of
    :func:`~repro.core.fastpath.sort_pairs_in_place` (equal keys keep
    input-list order, matching the pairwise stable tournament), folds
    duplicates with the shared :func:`~repro.core.fastpath.fold_sorted_runs`
    kernel, drops zeros, and writes the folded band out before the next
    band is generated.  The layer mergers' counters are replayed from the
    stream lengths alone, so ``stats`` (and the shared layer mergers' /
    adder's counters) match the scalar tree exactly.

    A key's row is ``key // W``, where ``W`` is the pending leaves' row
    width (the right operand's column count).  A round with no pending leaf
    uses ``W = 1``, so its rows are single keys.  Why the bands are exact:

    * Only a stream with more than ``block_elements`` elements left may set
      the cutoff: the smallest row, over those streams, of the element
      ``block_elements`` positions ahead.  *Every* element of the rows up
      to the cutoff is taken from *every* stream, so later bands hold
      strictly greater rows, hence strictly greater keys.  Concatenating
      the folded bands therefore reproduces the globally sorted order, and
      no equal-key run straddles a band boundary — each band folds exactly
      the runs the global fold would, with the same association, and the
      per-band adder counters sum to the global ones.
    * A leaf holds one run of products per row, so a band boundary is an
      element boundary of every pending leaf: a band generates whole
      elements, and each element's products exactly once.
    * When no stream has more than ``block_elements`` elements left, the
      band takes everything that is left.
    * Within a band the slices are laid end to end in ascending stream
      order, so ties break exactly as in one stable sort of the whole
      round.
    * The stream that sets the cutoff advances by at least
      ``block_elements`` elements, so every round finishes.  A band takes
      at most ``block_elements`` elements from a stream, plus the rest of
      its cutoff row, so the working set is bounded by one band.

    Args:
        block_elements: elements a band may take from one stream beyond the
            rest of its cutoff row (≥ 1); :data:`BLOCK_ELEMENTS`, read when
            the tree is built, by default (the accelerator always uses the
            default).  Results and counters are the same for every value.
    """

    def __init__(self, num_layers: int = 6, merger_width: int = 16,
                 chunk_size: int = 4, *,
                 block_elements: int | None = None) -> None:
        super().__init__(num_layers=num_layers, merger_width=merger_width,
                         chunk_size=chunk_size)
        if block_elements is None:
            block_elements = BLOCK_ELEMENTS
        self._block_elements = max(1, int(block_elements))

    def merge(self, streams: list[tuple[np.ndarray, np.ndarray]],
              write: Callable | None = None):
        """Merge one round, band by band; see :meth:`MergeTree.merge`.

        A stream may also be ``(LeafProducts, None)``; its products are
        generated here.  Without ``write`` the folded bands fill one buffer
        sized by the round's input length, returned as ``(keys, values)``.
        """
        if len(streams) > self.num_ways:
            raise ValueError(
                f"cannot merge {len(streams)} streams on a {self.num_ways}-way tree"
            )
        cleaned: list[tuple[np.ndarray | LeafProducts, np.ndarray | None]] = []
        for keys, values in streams:
            if not isinstance(keys, LeafProducts):
                if not (isinstance(keys, np.ndarray)
                        and keys.dtype.kind == "i"):  # keep int32 keys as-is
                    keys = np.asarray(keys, dtype=np.int64)
                values = np.asarray(values, dtype=np.float64)
                if len(keys) != len(values):
                    raise ValueError("keys and values must have equal length")
                # The band cutoffs are binary searches, which an unsorted
                # stream would send backwards; pending leaves are sorted by
                # construction.
                if len(keys) > 1 and np.any(keys[1:] < keys[:-1]):
                    raise ValueError("merge tree inputs must be key-sorted")
            cleaned.append((keys, values))
        lengths = [len(keys) for keys, _ in cleaned]
        if cleaned:
            self.account(lengths)
        key_dtype = (np.result_type(*[keys.dtype for keys, _ in cleaned])
                     if cleaned else np.dtype(np.int64))
        with _borrow_workspace() as workspace:
            bands = self._folded_bands(cleaned, workspace)
            if write is not None:
                result = write(bands, capacity=sum(lengths))
            elif max(lengths, default=0) <= self._block_elements:
                # The round is one band, and its folded band is the output.
                # A band with nothing to fold comes back as it is, a view of
                # the workspace that later rounds overwrite, so it is copied.
                keys, values = next(bands, (np.empty(0, key_dtype),
                                            np.empty(0)))
                in_workspace = np.may_share_memory(keys, workspace.keys)
                result = (keys.astype(key_dtype, copy=in_workspace),
                          values.copy() if in_workspace else values)
            else:
                result = _fill(bands, sum(lengths), key_dtype)
        self.stats.additions = self._adder.stats.additions
        return result

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

    def _bands(self, streams: list[tuple[np.ndarray | LeafProducts,
                                         np.ndarray | None]],
               workspace: _BandWorkspace
               ) -> Iterator[tuple[np.ndarray, np.ndarray, list[int]]]:
        """Yield each band of a round as ``(keys, values, bounds)``.

        A band is the slices its streams contribute, laid end to end in
        stream order: slice ``i`` is ``[bounds[i], bounds[i + 1])``.  The
        spilled streams' slices are copied into ``workspace``, and the
        pending leaves' products are generated into it, in one
        :meth:`VectorizedLeafStreamer._generate_into` call per band.
        The keys are int64, except that a band of one spilled slice is that
        slice itself.  The arrays are valid until the next band is
        requested.  The band rule is described in the class docstring.
        """
        block = self._block_elements
        streamer = next((keys.streamer for keys, _ in streams
                         if isinstance(keys, LeafProducts)), None)
        width = streamer.row_width if streamer is not None else 1
        if streamer is not None:
            before = streamer.products_before
            rows = streamer.element_rows
        # [keys, values, position, end] per non-empty stream; a pending
        # leaf's positions count its elements, an array's its keys.
        cursors = [[keys, values, keys.start, keys.stop]
                   if isinstance(keys, LeafProducts)
                   else [keys, values, 0, len(keys)]
                   for keys, values in streams if len(keys)]
        while cursors:
            ahead = []
            for keys, _, position, end in cursors:
                if not isinstance(keys, LeafProducts):
                    if end - position > block:
                        ahead.append(int(keys[position + block - 1]) // width)
                elif before[end] - before[position] > block:
                    element = np.searchsorted(
                        before, before[position] + block - 1, side="right") - 1
                    ahead.append(int(rows[element]))
            cutoff = min(ahead) if ahead else None

            stops = []
            for keys, _, position, end in cursors:
                if cutoff is None:
                    stops.append(end)
                elif isinstance(keys, LeafProducts):
                    stops.append(position + int(np.searchsorted(
                        rows[position:end], cutoff, side="right")))
                else:  # up to the cutoff row's last key
                    stops.append(int(np.searchsorted(
                        keys, (cutoff + 1) * width - 1, side="right")))
            yield _take_band(cursors, stops, streamer, workspace)
            for cursor, stop in zip(cursors, stops):
                cursor[2] = stop
            cursors = [cursor for cursor in cursors if cursor[2] < cursor[3]]

    def _folded_bands(self, streams: list[tuple[np.ndarray | LeafProducts,
                                                np.ndarray | None]],
                      workspace: _BandWorkspace
                      ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Merge, fold and zero-eliminate each band of a round.

        A folded band may be the merged band itself (when nothing folds or
        drops), so it too is valid only until the next band is requested.
        """
        for band in self._bands(streams, workspace):
            yield self._fold_band(_merge_band(band, workspace))

    def _fold_band(self, band: tuple[np.ndarray, np.ndarray]
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Fold one merged band; updates the adder counters."""
        keys, values = band
        folded_keys, folded_vals, num_runs = fold_sorted_runs(keys, values)
        self._adder.stats.additions += len(keys) - num_runs
        return folded_keys, folded_vals


class _BandWorkspace:
    """One merge round's band buffers (DESIGN.md §6).

    A band is laid out in ``keys`` and ``values``, sorted in place, and its
    sorted values gathered into ``gathered``; ``positions`` holds
    ``0, 1, 2, ...``.  The buffers grow to the largest band merged in them
    and are kept between rounds, so a band takes no fresh pages from the
    operating system.
    """

    def __init__(self) -> None:
        self.keys = np.empty(0, dtype=np.int64)
        self.values = np.empty(0, dtype=np.float64)
        self.positions = np.empty(0, dtype=np.int64)
        self.gathered = np.empty(0, dtype=np.float64)

    def reserve(self, size: int) -> None:
        """Grow every buffer to hold at least ``size`` elements."""
        if size <= len(self.keys):
            return
        # Release the old buffers before the new ones are allocated.  The
        # size is read from ``keys``, so it grows last: an allocation that
        # fails leaves a workspace that grows again on the next band.
        self.__init__()
        self.values = np.empty(size, dtype=np.float64)
        self.positions = np.arange(size, dtype=np.int64)
        self.gathered = np.empty(size, dtype=np.float64)
        self.keys = np.empty(size, dtype=np.int64)


#: Workspaces no merge round holds.  A round borrows one, or a new one when
#: none is idle, and gives it back when it ends, so the process keeps as
#: many as rounds have run at once: one per thread that merges at the same
#: time as others, not one per thread that ever merged.
_IDLE_WORKSPACES: list[_BandWorkspace] = []
_IDLE_LOCK = threading.Lock()


@contextmanager
def _borrow_workspace() -> Iterator[_BandWorkspace]:
    """Hold an idle band workspace, or a new one, for one merge round."""
    with _IDLE_LOCK:
        workspace = (_IDLE_WORKSPACES.pop() if _IDLE_WORKSPACES
                     else _BandWorkspace())
    try:
        yield workspace
    finally:
        with _IDLE_LOCK:
            _IDLE_WORKSPACES.append(workspace)


def _take_band(cursors: list[list], stops: list[int],
               streamer: VectorizedLeafStreamer | None,
               workspace: _BandWorkspace
               ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Each stream's slice from its position to its stop, end to end."""
    taken = [(keys, values, position, stop)
             for (keys, values, position, _), stop in zip(cursors, stops)
             if stop > position]
    if len(taken) == 1 and not isinstance(taken[0][0], LeafProducts):
        keys, values, position, stop = taken[0]
        return keys[position:stop], values[position:stop], [0, stop - position]
    bounds = [0]
    for keys, _, position, stop in taken:
        bounds.append(bounds[-1] + (
            int(streamer.products_before[stop]
                - streamer.products_before[position])
            if isinstance(keys, LeafProducts) else stop - position))
    workspace.reserve(bounds[-1])
    band_keys = workspace.keys[:bounds[-1]]
    band_values = workspace.values[:bounds[-1]]
    leaves = []
    for (keys, values, position, stop), offset, end in zip(taken, bounds,
                                                           bounds[1:]):
        if isinstance(keys, LeafProducts):
            leaves.append((position, stop, offset))
        else:
            band_keys[offset:end] = keys[position:stop]
            band_values[offset:end] = values[position:stop]
    if leaves:
        streamer._generate_into(np.array(leaves, dtype=np.int64), band_keys,
                                band_values, workspace.positions)
    return band_keys, band_values, bounds


def _merge_band(band: tuple[np.ndarray, np.ndarray, list[int]],
                workspace: _BandWorkspace) -> tuple[np.ndarray, np.ndarray]:
    """One band's slices merged in place, equal keys in stream order."""
    keys, values, bounds = band
    if len(bounds) <= 2:
        return keys, values
    return sort_pairs_in_place(keys, values, workspace.positions,
                               workspace.gathered)


def _fill(bands: Iterator[tuple[np.ndarray, np.ndarray]], capacity: int,
          key_dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """Copy folded bands into one buffer of ``capacity`` and trim it."""
    keys = np.empty(capacity, dtype=key_dtype)
    values = np.empty(capacity, dtype=np.float64)
    filled = 0
    for band_keys, band_values in bands:
        end = filled + len(band_keys)
        keys[filled:end] = band_keys
        values[filled:end] = band_values
        filled = end
        del band_keys, band_values  # before the next band is generated
    # Shrink in place; no view of the buffers exists.
    keys.resize(filled, refcheck=False)
    values.resize(filled, refcheck=False)
    return keys, values
