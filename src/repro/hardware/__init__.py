"""Micro-architecture building blocks of SpArch (§II-A, Table I).

The modules here model the accelerator datapath:

* :mod:`repro.hardware.hierarchical_merger` — the two-level comparator array
  that reduces comparator count to O(n^{4/3}) (Figs. 3 and 4).
* :mod:`repro.hardware.merge_tree` — the 64-way merge tree of shared
  per-layer mergers (Fig. 5).
* :mod:`repro.hardware.adder` / :mod:`repro.hardware.zero_eliminator` — the
  adder slice and zero eliminator that fold duplicate coordinates (Fig. 6).
* :mod:`repro.hardware.multiplier_array` — the outer-product multipliers.

Each block provides the *functional* path the scalar reference engine runs
(exact results, verified against scipy).  The merge tree and the adder also
count the activity the performance and energy models read: cycles,
comparator operations, additions and the elements entering the root.
"""

from repro.hardware.adder import AdderSlice
from repro.hardware.hierarchical_merger import HierarchicalMerger, comparator_count
from repro.hardware.merge_tree import MergeTree, MergeTreeStats
from repro.hardware.multiplier_array import multiply_column
from repro.hardware.zero_eliminator import eliminate_zeros

__all__ = [
    "AdderSlice",
    "HierarchicalMerger",
    "comparator_count",
    "MergeTree",
    "MergeTreeStats",
    "multiply_column",
    "eliminate_zeros",
]
