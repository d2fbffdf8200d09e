"""Fast-path numpy kernels for the merge/condensing hot loops.

The batched merge tree (:class:`repro.core.vectorized.VectorizedMergeTree`)
and the leaf streamers funnel their per-block work through the kernels here:

* :func:`merge_sorted_streams` — one packed-word sort that merges a block's
  sorted streams in exactly the order a stable argsort of their
  concatenation gives;
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
# Block merge
# ----------------------------------------------------------------------
def merge_sorted_streams(key_parts: list[np.ndarray],
                         value_parts: list[np.ndarray]
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted (key, value) streams, equal keys in stream order.

    Every element is packed into one int64 word ``key << b | position``,
    where ``position`` is its index in the concatenation of the streams and
    ``b = bit_length(n - 1)`` for ``n`` elements.  The words are distinct
    and order by key first, then by position, so numpy's default (unstable,
    SIMD) sort puts them in exactly the order
    ``np.argsort(np.concatenate(key_parts), kind="stable")`` gives.  The
    keys come back with an arithmetic ``>> b`` (negative keys included) and
    the values are gathered by the position bits.

    When a key falls outside the ``64 - b``-bit signed range the words
    would overflow, and the kernel falls back to the stable argsort.

    Returns the merged keys, in the concatenation's key dtype, and values.
    """
    all_vals = np.concatenate(value_parts)
    words = np.concatenate(key_parts, dtype=np.int64)
    key_dtype = np.result_type(*[keys.dtype for keys in key_parts])
    num_elements = len(words)
    if num_elements < 2:
        return words.astype(key_dtype, copy=False), all_vals
    shift = (num_elements - 1).bit_length()
    limit = 1 << (63 - shift)
    if not -limit <= int(words.min()) <= int(words.max()) < limit:
        all_keys = np.concatenate(key_parts)
        order = np.argsort(all_keys, kind="stable")
        return all_keys[order], all_vals[order]
    words <<= shift
    words |= np.arange(num_elements, dtype=np.int64)
    words.sort()
    merged_vals = all_vals[words & ((1 << shift) - 1)]
    words >>= shift
    return words.astype(key_dtype, copy=False), merged_vals


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
