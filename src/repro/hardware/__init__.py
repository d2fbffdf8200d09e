"""Micro-architecture building blocks of SpArch (§II-A, Table I).

The modules here model the accelerator datapath:

* :mod:`repro.hardware.comparator_array` — the parallel merge unit (Fig. 3).
* :mod:`repro.hardware.hierarchical_merger` — the two-level comparator array
  that reduces comparator count to O(n^{4/3}) (Fig. 4).
* :mod:`repro.hardware.merge_tree` — the 64-way merge tree of shared
  per-layer mergers (Fig. 5).
* :mod:`repro.hardware.adder` / :mod:`repro.hardware.zero_eliminator` — the
  adder slice and zero eliminator that fold duplicate coordinates (Fig. 6).
* :mod:`repro.hardware.multiplier_array` — the outer-product multipliers.

Each block provides both a *functional* path (exact results, used to verify
correctness against scipy) and an *activity* model (cycles, comparator
operations, additions) consumed by the performance and energy models.
"""

from repro.hardware.adder import AdderSlice, add_duplicates
from repro.hardware.comparator_array import ComparatorArray, merge_windows
from repro.hardware.hierarchical_merger import HierarchicalMerger, comparator_count
from repro.hardware.merge_tree import MergeTree, MergeTreeStats
from repro.hardware.multiplier_array import MultiplierArray
from repro.hardware.zero_eliminator import eliminate_zeros

__all__ = [
    "AdderSlice",
    "add_duplicates",
    "ComparatorArray",
    "merge_windows",
    "HierarchicalMerger",
    "comparator_count",
    "MergeTree",
    "MergeTreeStats",
    "MultiplierArray",
    "eliminate_zeros",
]
