"""SpArch core: the paper's primary contribution.

The public entry point is :class:`repro.core.accelerator.SpArch`, which wires
together matrix condensing, the Huffman tree scheduler, the row prefetcher
and the pipelined multiply/merge datapath, and returns both the functional
SpGEMM result and the simulated performance/energy statistics.  The row
prefetcher models the replacement *policy* of §II-D (which line to evict),
not the hash table and next-use reduction tree that implement it (§II-E).
"""

from repro.core.accelerator import Dataflow, SpArch, multiply
from repro.core.condensing import condensed_column_weights, partial_matrix_sizes
from repro.core.config import BACKEND_FIELDS, PRICING_FIELDS, SpArchConfig
from repro.core.fastpath import fold_sorted_runs, row_offsets
from repro.core.huffman import (
    MergePlan,
    MergeRound,
    MergeTreeNode,
    huffman_schedule,
    initial_merge_way,
    sequential_schedule,
)
from repro.core.partial_matrix import PartialMatrixStore, PartialMatrixWriter
from repro.core.prefetcher import PrefetchStats, RowPrefetcher
from repro.core.stats import SimulationStats, SpGEMMResult

__all__ = [
    "SpArch",
    "Dataflow",
    "multiply",
    "condensed_column_weights",
    "partial_matrix_sizes",
    "SpArchConfig",
    "BACKEND_FIELDS",
    "PRICING_FIELDS",
    "fold_sorted_runs",
    "row_offsets",
    "MergePlan",
    "MergeRound",
    "MergeTreeNode",
    "huffman_schedule",
    "initial_merge_way",
    "sequential_schedule",
    "PartialMatrixStore",
    "PartialMatrixWriter",
    "PrefetchStats",
    "RowPrefetcher",
    "SimulationStats",
    "SpGEMMResult",
]
