"""Merge tree (§II-A.3, Figure 5).

A single hierarchical merger merges two sorted streams.  To merge up to 64
partial matrices at once, SpArch stacks binary mergers into a full binary
tree: every node is a FIFO, input arrays enter at the leaves, the final
stream leaves the root.  Because the root bounds the throughput, each *layer*
of the tree shares one physical merger.

The class below merges a list of COO-format partial matrices (already sorted
by linearised (row, column) key) into one canonical stream.  It reports:

* functional result — the merged, duplicate-folded, zero-eliminated stream;
* activity — cycles (throughput-bound by the root merger), comparator
  operations, floating point additions and the elements entering the root.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.hardware.adder import AdderSlice
from repro.hardware.hierarchical_merger import HierarchicalMerger
from repro.hardware.zero_eliminator import eliminate_zeros
from repro.utils.validation import check_positive_int


@dataclass
class MergeTreeStats:
    """Activity counters accumulated over one or more merge operations."""

    cycles: int = 0
    comparator_ops: int = 0
    additions: int = 0
    elements_into_root: int = 0


class MergeTree:
    """A ``2**num_layers``-way streaming merge tree.

    Args:
        num_layers: tree depth; the tree merges up to ``2**num_layers``
            sorted input arrays in one pass (6 layers → 64-way in SpArch).
        merger_width: elements merged per cycle by the (shared) merger of
            each layer (16 in SpArch).
        chunk_size: low-level comparator array width of the hierarchical
            merger (4 in SpArch).
    """

    def __init__(self, num_layers: int = 6, merger_width: int = 16,
                 chunk_size: int = 4) -> None:
        check_positive_int(num_layers, "num_layers")
        check_positive_int(merger_width, "merger_width")
        self._num_layers = num_layers
        self._merger_width = merger_width
        # One shared merger per layer (Figure 5: "each layer shares one
        # merger to balance the throughput").
        self._layer_mergers = [
            HierarchicalMerger(total_width=merger_width, chunk_size=chunk_size)
            for _ in range(num_layers)
        ]
        self._adder = AdderSlice()
        self.stats = MergeTreeStats()

    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return self._num_layers

    @property
    def num_ways(self) -> int:
        """Maximum number of input arrays merged in a single pass."""
        return 2 ** self._num_layers

    # ------------------------------------------------------------------
    def merge(self, streams: list[tuple[np.ndarray, np.ndarray]],
              write: Callable | None = None):
        """Merge sorted key/value streams into one folded, zero-free stream.

        Args:
            streams: list of ``(keys, values)`` pairs; each ``keys`` array
                must be sorted non-decreasingly (keys are linearised
                (row, column) coordinates).  The list length must not exceed
                :attr:`num_ways`.
            write: where the merged stream goes instead of being returned,
                such as the result writer's ``write_bands`` bound to a shape
                (:class:`~repro.core.partial_matrix.PartialMatrixWriter`).
                It is called once, as ``write(bands, capacity=n)``, with an
                iterable of consecutive ``(keys, values)`` pieces of the
                stream and a bound ``n`` on their total length.

        Returns:
            ``(keys, values)`` of the merged stream with duplicate keys summed
            and exact zeros removed, or what ``write`` returns.
        """
        if len(streams) > self.num_ways:
            raise ValueError(
                f"cannot merge {len(streams)} streams on a {self.num_ways}-way tree"
            )
        cleaned: list[tuple[np.ndarray, np.ndarray]] = []
        for keys, values in streams:
            keys = np.asarray(keys, dtype=np.int64)
            values = np.asarray(values, dtype=np.float64)
            if len(keys) != len(values):
                raise ValueError("keys and values must have equal length")
            if len(keys) > 1 and np.any(np.diff(keys) < 0):
                raise ValueError("merge tree inputs must be key-sorted")
            cleaned.append((keys, values))
        if not cleaned:
            if write is not None:
                return write([], capacity=0)
            return np.empty(0, dtype=np.int64), np.empty(0)

        # Pairwise tournament, layer by layer, exactly like the binary tree.
        current = cleaned
        layer = 0
        while len(current) > 1:
            merger = self._layer_mergers[min(layer, self._num_layers - 1)]
            next_level: list[tuple[np.ndarray, np.ndarray]] = []
            for i in range(0, len(current), 2):
                if i + 1 >= len(current):
                    next_level.append(current[i])
                    continue
                a_keys, a_vals = current[i]
                b_keys, b_vals = current[i + 1]
                next_level.append(merger.merge(a_keys, a_vals,
                                               b_keys, b_vals))
            current = next_level
            layer += 1

        merged_keys, merged_vals = current[0]
        self.stats.elements_into_root += len(merged_keys)

        folded_keys, folded_vals = self._adder.fold(merged_keys, merged_vals)
        out_keys, out_vals = eliminate_zeros(folded_keys, folded_vals)
        self.stats.additions = self._adder.stats.additions
        self.stats.comparator_ops = sum(
            m.stats.comparator_ops for m in self._layer_mergers
        )
        # The tree is throughput-bound by the root merger; layers operate in
        # a pipelined fashion, so the cycle count is the root traffic divided
        # by the merger width plus a fill latency of one FIFO per layer.
        root_cycles = -(-len(merged_keys) // self._merger_width) if len(merged_keys) else 0
        self.stats.cycles += root_cycles + self._num_layers
        if write is not None:
            return write([(out_keys, out_vals)], capacity=len(out_keys))
        return out_keys, out_vals

    def merge_cycles(self, total_output_elements: int) -> int:
        """Cycles to stream ``total_output_elements`` through the root."""
        if total_output_elements < 0:
            raise ValueError("total_output_elements must be non-negative")
        if total_output_elements == 0:
            return 0
        return -(-total_output_elements // self._merger_width) + self._num_layers

    def __repr__(self) -> str:
        return (f"MergeTree(num_layers={self._num_layers}, "
                f"ways={self.num_ways}, merger_width={self._merger_width})")
