"""Hierarchical (two-level) comparator array (§II-A.2, Figure 4).

A flat N×N comparator array needs O(N²) comparators.  SpArch splits the
input windows into chunks: a *top-level* array compares only the last (and
largest) element of each chunk to decide which chunk pairs overlap, and
*low-level* arrays merge just those chunk pairs in parallel.  With an
n^{2/3} × n^{2/3} top-level array and n^{1/3} × n^{1/3} low-level arrays the
merger processes *n* elements per cycle using only

    (2·n^{2/3} − 1) · (n^{1/3})² + (n^{2/3})²  =  O(n^{4/3})

comparators.  SpArch instantiates the 16-wide variant (4×4 top + 4×4 low).

The boundary logic of Figures 3 and 4 is not simulated: the merger is a
stable merge charged ⌈n / width⌉ cycles, each of which uses every
comparator (DESIGN.md §3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import check_positive_int


def comparator_count(total_width: int, chunk_size: int) -> int:
    """Number of comparators of a hierarchical merger.

    Args:
        total_width: elements merged per cycle (*n* in the paper's formula).
        chunk_size: width of each low-level comparator array (n^{1/3} for the
            asymptotically optimal split; 4 in SpArch's 16-wide merger).

    Returns:
        ``(2·num_chunks − 1) · chunk_size² + num_chunks²`` where
        ``num_chunks = total_width / chunk_size``.
    """
    check_positive_int(total_width, "total_width")
    check_positive_int(chunk_size, "chunk_size")
    if total_width % chunk_size != 0:
        raise ValueError(
            f"total_width {total_width} must be a multiple of chunk_size {chunk_size}"
        )
    num_chunks = total_width // chunk_size
    low_level = (2 * num_chunks - 1) * chunk_size * chunk_size
    top_level = num_chunks * num_chunks
    return low_level + top_level


@dataclass
class MergerStats:
    """Activity counter of one merger, summed by the merge tree."""

    comparator_ops: int = 0


@dataclass
class HierarchicalMerger:
    """A two-level comparator-array merger.

    Args:
        total_width: merged elements per cycle (16 in SpArch).
        chunk_size: width of the low-level arrays (4 in SpArch).
    """

    total_width: int = 16
    chunk_size: int = 4
    stats: MergerStats = field(default_factory=MergerStats)

    def __post_init__(self) -> None:
        check_positive_int(self.total_width, "total_width")
        check_positive_int(self.chunk_size, "chunk_size")
        if self.total_width % self.chunk_size != 0:
            raise ValueError(
                f"total_width {self.total_width} must be a multiple of "
                f"chunk_size {self.chunk_size}"
            )

    # ------------------------------------------------------------------
    @property
    def num_chunks(self) -> int:
        """Number of chunks per input window."""
        return self.total_width // self.chunk_size

    @property
    def num_comparators(self) -> int:
        """Comparator count, O(n^{4/3}) instead of the flat O(n²)."""
        return comparator_count(self.total_width, self.chunk_size)

    @property
    def throughput(self) -> int:
        """Sustained merged elements per cycle."""
        return self.total_width

    # ------------------------------------------------------------------
    def merge(self, a_keys: np.ndarray, a_vals: np.ndarray,
              b_keys: np.ndarray, b_vals: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """Merge two sorted key/value streams into one sorted stream.

        Functionally this is a stable two-way merge on the keys; the
        activity model charges ``ceil(output_length / throughput)`` cycles
        and ``num_comparators`` comparator operations per cycle, which is
        how the real array behaves in steady state.

        Returns:
            ``(merged_keys, merged_values)``; duplicates are preserved.
        """
        a_keys = np.asarray(a_keys, dtype=np.int64)
        b_keys = np.asarray(b_keys, dtype=np.int64)
        a_vals = np.asarray(a_vals, dtype=np.float64)
        b_vals = np.asarray(b_vals, dtype=np.float64)
        if len(a_keys) != len(a_vals) or len(b_keys) != len(b_vals):
            raise ValueError("key and value arrays must have equal length")

        total = len(a_keys) + len(b_keys)
        if total == 0:
            merged_keys = np.empty(0, dtype=np.int64)
            merged_vals = np.empty(0, dtype=np.float64)
        else:
            keys = np.concatenate([a_keys, b_keys])
            vals = np.concatenate([a_vals, b_vals])
            order = np.argsort(keys, kind="stable")
            merged_keys = keys[order]
            merged_vals = vals[order]

        cycles = -(-total // self.throughput) if total else 0
        self.stats.comparator_ops += cycles * self.num_comparators
        return merged_keys, merged_vals

    def __repr__(self) -> str:
        return (f"HierarchicalMerger(total_width={self.total_width}, "
                f"chunk_size={self.chunk_size})")
