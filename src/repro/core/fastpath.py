"""Fast-path numpy kernels for the merge/condensing hot loops.

The batched merge tree (:class:`repro.core.vectorized.VectorizedMergeTree`)
and the leaf streamers funnel their per-band work through the kernels here:

* :func:`sort_pairs_in_place` — one packed-word sort that merges a band's
  sorted streams, laid end to end in caller buffers, in exactly the order
  a stable argsort gives;
* :func:`fold_sorted_runs` — duplicate-key folding + exact-zero elimination
  of one sorted stream, the inner loop of every merge round;
* :func:`row_offsets` — the offset-within-row of every stored CSR element,
  the quantity matrix condensing groups by.

The fold uses the same ``np.add.reduceat`` call as the scalar
:class:`~repro.hardware.adder.AdderSlice`, so both engines sum every run
with the same association (``reduceat`` adds the first element to a
pairwise sum of the rest, not a left-to-right chain) and produce the same
IEEE-754 results.
"""

from __future__ import annotations

import numpy as np


# ----------------------------------------------------------------------
# Band merge
# ----------------------------------------------------------------------
#: Positions the in-place sort unpacks per step of its value gather: bounds
#: the gather's temporary indices to 512 KiB, whatever the band's size.
GATHER_CHUNK = 1 << 16


def sort_pairs_in_place(keys: np.ndarray, values: np.ndarray,
                        positions: np.ndarray, merged_values: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``(key, value)`` pairs by key in caller buffers, equal keys in order.

    A merge band is its streams' sorted slices laid end to end in stream
    order, so this sort merges them exactly as
    ``np.argsort(keys, kind="stable")`` would.  Every key is packed in
    place with its position into one int64 word ``key << b | position``,
    where ``b = bit_length(n - 1)`` for ``n`` pairs.  The words are
    distinct and order by key first, then by position, so numpy's default
    (unstable, SIMD) sort puts them in the stable order.  The keys come
    back with an arithmetic ``>> b`` (negative keys included), and the
    values are gathered by the position bits into ``merged_values``.

    When a key falls outside the ``64 - b``-bit signed range the words
    would overflow, and the sort falls back to the stable argsort, which
    returns fresh arrays.

    Args:
        keys: the int64 keys; overwritten with the sorted keys.
        values: the float64 values aligned with ``keys``; read only.
        positions: int64 buffer whose first ``n`` entries are
            ``0, 1, 2, ...``; read only.
        merged_values: float64 buffer of at least ``n`` entries; receives
            the sorted values.

    Returns:
        The sorted keys and values: ``keys`` and the first ``n`` entries of
        ``merged_values``.
    """
    num_elements = len(keys)
    if num_elements < 2:
        return keys, values
    shift = (num_elements - 1).bit_length()
    limit = 1 << (63 - shift)
    if not -limit <= int(keys.min()) <= int(keys.max()) < limit:
        order = np.argsort(keys, kind="stable")
        return keys[order], values[order]
    keys <<= shift
    keys |= positions[:num_elements]
    keys.sort()
    mask = (1 << shift) - 1
    merged = merged_values[:num_elements]
    for start in range(0, num_elements, GATHER_CHUNK):
        words = keys[start:start + GATHER_CHUNK]
        # The gather indices are in range, so "clip" never clips; unlike
        # the default mode it writes ``out`` without a buffered copy.
        np.take(values, words & mask, out=merged[start:start + len(words)],
                mode="clip")
    keys >>= shift
    return keys, merged


# ----------------------------------------------------------------------
# Duplicate folding + zero elimination
# ----------------------------------------------------------------------
def fold_sorted_runs(keys: np.ndarray, values: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, int]:
    """Fold equal-key runs of a sorted stream and drop exact zeros.

    Same ``np.add.reduceat`` kernel as
    :meth:`repro.hardware.adder.AdderSlice.fold` (so the float sums are
    bit-identical to the scalar backend), with the surviving keys gathered
    once after the zero mask.  Returns ``(out_keys, out_values, num_runs)``
    — the run count is what the adder's addition counter derives from.
    """
    if not len(keys):
        return keys.copy(), values.copy(), 0
    run_starts = np.empty(len(keys), dtype=bool)
    run_starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=run_starts[1:])
    num_runs = int(np.count_nonzero(run_starts))
    if num_runs == len(keys):
        # All keys distinct: nothing folds, only zeros could drop.
        keep = values != 0.0
        if keep.all():
            return keys, values, num_runs
        return keys[keep], values[keep], num_runs
    starts = np.flatnonzero(run_starts)
    folded_vals = np.add.reduceat(values, starts)
    keep = folded_vals != 0.0
    return keys[starts[keep]], folded_vals[keep], num_runs


# ----------------------------------------------------------------------
# Condensing offsets
# ----------------------------------------------------------------------
def row_offsets(indptr: np.ndarray) -> np.ndarray:
    """Offset of every stored element within its CSR row.

    Element ``p`` of row-major CSR storage lives in condensed column
    ``p - indptr[row(p)]``; this is the grouping key of matrix condensing
    (§II-B) and of the leaf streamers' element grouping.
    """
    nnz = int(indptr[-1])
    row_lengths = np.diff(indptr)
    return (np.arange(nnz, dtype=np.int64)
            - np.repeat(indptr[:-1], row_lengths))
