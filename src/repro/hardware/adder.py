"""Adder slice (§II-A.4).

The comparator-array merger only *interleaves* elements; elements that carry
the same (row, column) coordinate end up adjacent in the merged stream and
must be summed.  A slice of adders immediately after the merger adds each
pair of adjacent same-coordinate elements, writes the sum into one of them
and zeroes the other; the zero eliminator then squeezes the zeros out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AdderStats:
    """Activity counter of the adder slice."""

    additions: int = 0


class AdderSlice:
    """Folds adjacent same-coordinate elements of a sorted stream.

    The functional output keeps one entry per distinct coordinate (with
    summed value, possibly zero — zeros are removed later by the zero
    eliminator).  The number of floating point additions performed is
    tracked for the energy model.
    """

    def __init__(self) -> None:
        self.stats = AdderStats()

    def fold(self, keys: np.ndarray, values: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
        """Sum runs of equal keys in a key-sorted stream.

        Args:
            keys: coordinate keys, sorted non-decreasingly.
            values: values aligned with ``keys``.

        Returns:
            ``(unique_keys, summed_values)`` — one entry per distinct key, in
            order; accumulated zeros are *kept* (the zero eliminator drops
            them).
        """
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if len(keys) != len(values):
            raise ValueError("keys and values must have equal length")
        if len(keys) == 0:
            return keys.copy(), values.copy()
        if np.any(keys[1:] < keys[:-1]):
            raise ValueError("adder slice requires a key-sorted input stream")

        # Runs of equal keys are contiguous in the sorted stream, so one
        # boundary mask + np.add.reduceat folds every run at once.
        run_starts = np.empty(len(keys), dtype=bool)
        run_starts[0] = True
        np.not_equal(keys[1:], keys[:-1], out=run_starts[1:])
        starts = np.flatnonzero(run_starts)
        unique_keys = keys[starts]
        summed = np.add.reduceat(values, starts)
        # Each run of k equal keys needs k-1 additions.
        self.stats.additions += len(keys) - len(starts)
        return unique_keys, summed
