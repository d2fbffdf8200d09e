"""Top-level SpArch accelerator model (§II-E, Figure 10).

:class:`SpArch` wires together the paper's four techniques — pipelined
multiply/merge, matrix condensing, the Huffman tree scheduler and the MatB
row prefetcher — into one simulated SpGEMM execution.  Each technique can be
disabled individually through :class:`repro.core.config.SpArchConfig`, which
is how the breakdown experiment of Figure 16 walks from the OuterSPACE-style
dataflow to the full design.

The simulation is *functional* (the result matrix is exact and verified
against scipy in the tests) and *transaction-level* for performance: every
DRAM byte is charged to a :class:`~repro.memory.traffic.TrafficCategory`,
compute cycles come from the multiplier/merger throughput models, and the
final cycle count is the maximum of the memory-bound and compute-bound
estimates plus the per-round startup overhead — the bandwidth-bound analysis
the paper's roofline (Figure 15) is built on.

Two interchangeable code paths implement the multiply/merge hot path,
chosen by ``SpArchConfig.engine``: the scalar reference in this module
(:class:`_LeafStreamer` + :class:`~repro.hardware.merge_tree.MergeTree`,
``engine="scalar"``) and the batched implementation in
:mod:`repro.core.vectorized` (``engine="vectorized"``).  The batched path
hands the merge tree pending leaves
(:class:`~repro.core.vectorized.LeafProducts`), and
:class:`~repro.core.vectorized.VectorizedMergeTree` generates, merges,
folds and writes each round one row band at a time, so its working set is
bounded per band — which is what runs paper-scale scenarios.  The
prefetcher policy has a reference/fast pair too: the scalar engine runs
:class:`~repro.core.prefetcher.RowPrefetcher`'s per-access reference loop,
the batched engine its event-driven replay wherever that applies.  Both
produce identical results and statistics — see
``tests/integration/test_engine_equivalence.py``.  Everything else (plan
construction, traffic accounting, result materialisation) is shared code.

A multiply runs in two steps.  :meth:`SpArch.run_dataflow` does the work
that no field in :data:`~repro.core.config.PRICING_FIELDS` can change:
the plan, the right-operand access order, the products, the merge rounds,
the spills and the result write.  It records each merge round's input
stream lengths in a :class:`Dataflow`.  :meth:`SpArch.price` then turns
one dataflow into one configuration's statistics: it replays the row
prefetcher over the access order with that configuration's buffer,
replays the merge-tree counters from the recorded lengths with its merger
geometry (:meth:`~repro.core.vectorized.VectorizedMergeTree.account`), and
adds the multiplier, memory and startup cycles.  The pricing is exact
because the merge counters depend only on the stream lengths and the
merger geometry, and the prefetcher sees only the access order and the
right operand's row lengths.  So configurations that differ only in
pricing fields can share one dataflow; the experiment runner groups such
points (DESIGN.md §11).  The scalar reference never shares: it prices
its merges from its own tree's counters, which keeps the differential
harness comparing the batched pricing against an untouched reference.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.condensing import (
    multiplication_count,
    original_column_partial_sizes,
    partial_matrix_sizes,
)
from repro.core.config import SpArchConfig
from repro.core.huffman import MergePlan, huffman_schedule, sequential_schedule
from repro.core.partial_matrix import PartialMatrixStore, PartialMatrixWriter
from repro.core.prefetcher import PrefetchStats, RowPrefetcher
from repro.core.stats import SimulationStats, SpGEMMResult
from repro.core.vectorized import VectorizedLeafStreamer, VectorizedMergeTree
from repro.formats.condensed import CondensedMatrix
from repro.formats.convert import csr_to_csc
from repro.formats.csr import CSRMatrix
from repro.formats.keys import linear_keys
from repro.hardware.merge_tree import MergeTree, MergeTreeStats
from repro.hardware.multiplier_array import multiply_column
from repro.memory.hbm import HBMModel
from repro.memory.traffic import TrafficCategory, TrafficCounter


class _LeafStreamer:
    """Produces the partial-product stream of one merge-plan leaf.

    With matrix condensing enabled a leaf is one *condensed column* of the
    left operand; without condensing it is one *original column*.  Either
    way the leaf's partial products leave the multipliers already sorted by
    linearised (row, column) key, ready for the merge tree.
    """

    def __init__(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix, *,
                 condensing: bool) -> None:
        self._matrix_a = matrix_a
        self._matrix_b = matrix_b
        self._condensing = condensing
        self._condensed = CondensedMatrix(matrix_a) if condensing else None
        if condensing:
            self._leaf_columns = list(range(self._condensed.num_condensed_columns))
        else:
            occupied = np.unique(matrix_a.indices)
            self._leaf_columns = [int(c) for c in occupied]
        # The un-condensed path streams original columns, so it needs the
        # column-major (CSC) view of A; the condensed path never does.
        self._csc = csr_to_csc(matrix_a) if not condensing else None

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
        column = self._leaf_columns[leaf]
        if self._condensing:
            return self._condensed.column(column).original_cols.copy()
        return np.full(self._csc.col_nnz(column), column, dtype=np.int64)

    def leaf_stream(self, leaf: int) -> tuple[np.ndarray, np.ndarray]:
        """Multiply one leaf and return its sorted (key, value) stream."""
        column = self._leaf_columns[leaf]
        if self._condensing:
            col = self._condensed.column(column)
            rows, cols, vals = multiply_column(
                col.rows, col.original_cols, col.values, self._matrix_b)
        else:
            a_rows, a_vals = self._csc.col(column)
            a_cols = np.full(len(a_rows), column, dtype=np.int64)
            rows, cols, vals = multiply_column(
                a_rows, a_cols, a_vals, self._matrix_b)
        keys = linear_keys(rows, cols, self._matrix_b.num_cols)
        return keys, vals


@dataclass
class Dataflow:
    """Everything one ``A · B`` computes that no pricing field changes.

    :meth:`SpArch.run_dataflow` produces it and :meth:`SpArch.price` turns
    it into one design point's statistics.  Every configuration with the
    same :meth:`~repro.core.config.SpArchConfig.dataflow_key` runs this
    same dataflow, so one run serves all of them.

    Attributes:
        config: the configuration the dataflow ran under.
        matrix: the exact result.
        matrix_b: the right operand; prefetcher replays read its row lengths.
        access_order: right-operand rows in the order the multipliers
            consume them.
        round_lengths: the input stream lengths of every merge-tree pass,
            in execution order (empty when an operand was empty).
        stats: the counters and DRAM traffic the dataflow fixes: plan
            facts, multiplications, additions, output size, merge-tree
            root elements, and the traffic of reading A, spilling partial
            results and writing the result.  :meth:`SpArch.price` fills in
            the rest on a copy.
        merge_stats: the scalar engine's own merge-tree counters, which
            price its merges; ``None`` on the batched engine, which
            replays them from ``round_lengths``.
    """

    config: SpArchConfig
    matrix: CSRMatrix
    matrix_b: CSRMatrix
    access_order: np.ndarray
    round_lengths: list[list[int]]
    stats: SimulationStats
    merge_stats: MergeTreeStats | None = None


class SpArch:
    """The SpArch accelerator: functional SpGEMM plus performance simulation.

    Args:
        config: architectural configuration; defaults to the Table I setup.

    Example:
        >>> from repro.matrices import random_matrix
        >>> from repro.core import SpArch
        >>> a = random_matrix(128, 128, 512, seed=1)
        >>> result = SpArch().multiply(a, a)
        >>> result.stats.dram_bytes > 0
        True
    """

    def __init__(self, config: SpArchConfig | None = None) -> None:
        self._config = config or SpArchConfig()

    @property
    def config(self) -> SpArchConfig:
        return self._config

    # ------------------------------------------------------------------
    def multiply(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix) -> SpGEMMResult:
        """Simulate ``C = A · B`` and return the result with statistics.

        Two steps: :meth:`run_dataflow` computes everything no pricing
        field can change (plan, access order, products, merge rounds,
        spills and the result write), then :meth:`price` turns that
        dataflow into this configuration's statistics.  The result keeps
        the dataflow, so any configuration with the same
        :meth:`~repro.core.config.SpArchConfig.dataflow_key` can price it
        too without multiplying again.

        Args:
            matrix_a: left operand in CSR format.
            matrix_b: right operand in CSR format; ``A.shape[1]`` must equal
                ``B.shape[0]``.

        Returns:
            :class:`~repro.core.stats.SpGEMMResult` containing the exact CSR
            result, the simulated performance statistics and the dataflow.
        """
        dataflow = self.run_dataflow(matrix_a, matrix_b)
        return SpGEMMResult(dataflow.matrix, self.price(dataflow), dataflow)

    def run_dataflow(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix
                     ) -> Dataflow:
        """Run the parts of ``A · B`` that no pricing field changes.

        Returns the exact result, the right-operand access order, every
        merge round's input stream lengths, and the counters and traffic
        they fix.  The merge buffers are dropped before this returns, so
        :meth:`price` runs beside the result only.
        """
        if matrix_a.shape[1] != matrix_b.shape[0]:
            raise ValueError(
                f"dimension mismatch: cannot multiply {matrix_a.shape} by "
                f"{matrix_b.shape}"
            )
        _check_row_order(matrix_b)
        config = self._config
        result_shape = (matrix_a.shape[0], matrix_b.shape[1])
        stats = SimulationStats()

        # Degenerate cases: an empty operand produces an empty result.
        if matrix_a.nnz == 0 or matrix_b.nnz == 0:
            stats.scheduler = self._scheduler_name()
            return Dataflow(config, CSRMatrix.empty(result_shape), matrix_b,
                            np.zeros(0, dtype=np.int64), [], stats)

        traffic = stats.traffic
        scalar = config.engine == "scalar"
        merge_tree = (MergeTree if scalar else VectorizedMergeTree)(
            num_layers=config.merge_tree_layers,
            merger_width=config.merger_width,
            chunk_size=config.merger_chunk_size)
        store = PartialMatrixStore(traffic, element_bytes=config.element_bytes)
        writer = PartialMatrixWriter(traffic, element_bytes=config.element_bytes)

        streamer = (_LeafStreamer if scalar else VectorizedLeafStreamer)(
            matrix_a, matrix_b, condensing=config.enable_matrix_condensing)
        plan = self._build_plan(streamer.leaf_weights())

        stats.num_partial_matrices = streamer.num_leaves
        stats.condensed_columns = (streamer.condensed.num_condensed_columns
                                   if streamer.condensed is not None else 0)
        stats.num_merge_rounds = len(plan.rounds)
        stats.scheduler = plan.scheduler
        stats.multiplications = multiplication_count(matrix_a, matrix_b)

        # The left operand is streamed exactly once, leaf by leaf.
        traffic.add(TrafficCategory.MATRIX_A_READ,
                    matrix_a.nnz * config.element_bytes)
        access_order = self._consumption_access_order(streamer, plan)

        round_lengths: list[list[int]] = []
        result = self._execute_plan(
            streamer, plan, merge_tree, store, config.enable_pipelined_merge,
            round_lengths, partial(writer.write_bands, shape=result_shape))

        stats.output_nnz = result.nnz
        stats.additions = merge_tree.stats.additions
        stats.merge_tree_elements = merge_tree.stats.elements_into_root
        # The scalar reference prices its merges from its own tree.
        return Dataflow(config, result, matrix_b, access_order, round_lengths,
                        stats, merge_tree.stats if scalar else None)

    def price(self, dataflow: Dataflow) -> SimulationStats:
        """This configuration's statistics for a dataflow.

        Replays the row prefetcher over the dataflow's access order with
        this configuration's buffer, prices the recorded merge rounds with
        its merger geometry, and adds multiplier, memory and startup
        cycles.  The batched engine prices every configuration this way,
        the one whose dataflow ran included; the scalar reference takes
        its merge counters from its own tree, so it prices only the
        dataflow it ran.

        Raises:
            ValueError: the dataflow ran under a configuration with another
                :meth:`~repro.core.config.SpArchConfig.dataflow_key`, or, on
                the scalar engine, under any other configuration.
        """
        config = self._config
        if config.dataflow_key() != dataflow.config.dataflow_key():
            raise ValueError(
                "the dataflow ran under a configuration that differs in a "
                "field outside PRICING_FIELDS; it cannot be priced here")
        if dataflow.merge_stats is not None and config != dataflow.config:
            raise ValueError("a scalar dataflow prices only its own "
                             "configuration")
        recorded = dataflow.stats
        stats = dataclasses.replace(recorded, traffic=TrafficCounter(
            dict(recorded.traffic.bytes_by_category)))
        stats.clock_hz = config.clock_hz
        stats.peak_bandwidth_bytes_per_cycle = config.hbm.bytes_per_cycle
        if not dataflow.round_lengths:  # an empty operand: nothing ran
            return stats

        traffic = stats.traffic
        prefetch_stats = self._simulate_matrix_b_reads(
            dataflow.matrix_b, dataflow.access_order, traffic)
        stats.prefetch_hit_rate = prefetch_stats.hit_rate
        stats.prefetch_bytes_saved = (prefetch_stats.bytes_without_buffer
                                      - prefetch_stats.dram_bytes_read)
        stats.buffer_element_reads = prefetch_stats.element_hits

        merge_stats = dataflow.merge_stats
        if merge_stats is None:
            tree = VectorizedMergeTree(num_layers=config.merge_tree_layers,
                                       merger_width=config.merger_width,
                                       chunk_size=config.merger_chunk_size)
            for lengths in dataflow.round_lengths:
                tree.account(lengths)
            merge_stats = tree.stats
        stats.comparator_ops = merge_stats.comparator_ops

        hbm = HBMModel(config.hbm)
        multiply_cycles = -(-stats.multiplications // config.num_multipliers)
        startup_cycles = ((stats.num_merge_rounds + 1)
                          * config.round_startup_cycles)
        stats.compute_cycles = multiply_cycles + merge_stats.cycles
        stats.memory_cycles = hbm.memory_cycles(traffic.read_bytes,
                                                traffic.write_bytes)
        stats.cycles = (max(stats.compute_cycles, stats.memory_cycles)
                        + startup_cycles)
        stats.runtime_seconds = hbm.runtime_seconds(stats.cycles)
        return stats

    # ------------------------------------------------------------------
    def _scheduler_name(self) -> str:
        return "huffman" if self._config.enable_huffman_scheduler else "sequential"

    def _build_plan(self, weights: np.ndarray) -> MergePlan:
        """Schedule the merge rounds over the leaf weights."""
        ways = self._config.merge_ways
        weight_list = [float(w) for w in weights]
        if self._config.enable_huffman_scheduler:
            return huffman_schedule(weight_list, ways)
        return sequential_schedule(weight_list, ways)

    def _consumption_access_order(self, streamer: _LeafStreamer,
                                  plan: MergePlan) -> np.ndarray:
        """Right-matrix row sequence in the order leaves are consumed."""
        pieces = [streamer.leaf_access_order(leaf)
                  for leaves in plan.leaf_rounds() for leaf in leaves]
        if not pieces:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(pieces)

    def _simulate_matrix_b_reads(self, matrix_b: CSRMatrix,
                                 access_order: np.ndarray,
                                 traffic: TrafficCounter) -> PrefetchStats:
        """Charge the right-operand read traffic, with or without the buffer.

        Without the prefetcher every *run* of consecutive accesses to the same
        row costs one full row fetch — the natural behaviour of a dataflow
        that holds only the row it is currently multiplying (this is what
        gives the un-condensed outer product its perfect input reuse).  With
        the prefetcher the Bélády-replacement row buffer is simulated over the
        whole access sequence.
        """
        config = self._config
        element_bytes = config.prefetch_element_bytes
        if len(access_order) == 0:
            return PrefetchStats()

        if config.enable_row_prefetcher:
            prefetcher = RowPrefetcher(
                matrix_b,
                num_lines=config.prefetch_buffer_lines,
                line_elements=config.prefetch_line_elements,
                element_bytes=element_bytes,
                lookahead_window=config.lookahead_fifo_elements,
                reference=config.engine == "scalar",
            )
            prefetch_stats = prefetcher.simulate(access_order)
            traffic.add(TrafficCategory.MATRIX_B_READ,
                        prefetch_stats.dram_bytes_read)
            return prefetch_stats

        # No prefetcher: one row fetch per run of equal consecutive accesses.
        # A boolean run-start mask separates first touches (misses) from the
        # repeats inside a run (hits) without walking the sequence in Python.
        row_nnz = matrix_b.nnz_per_row()
        stats = PrefetchStats()
        access_nnz = row_nnz[access_order]
        run_starts = np.empty(len(access_order), dtype=bool)
        run_starts[0] = True
        np.not_equal(access_order[1:], access_order[:-1], out=run_starts[1:])
        total_elements = int(access_nnz.sum())
        miss_elements = int(access_nnz[run_starts].sum())
        stats.accesses = len(access_order)
        stats.bytes_without_buffer = total_elements * element_bytes
        stats.element_hits = total_elements - miss_elements
        stats.element_misses = miss_elements
        stats.dram_bytes_read = miss_elements * element_bytes
        traffic.add(TrafficCategory.MATRIX_B_READ, stats.dram_bytes_read)
        return stats

    def _execute_plan(self, streamer: _LeafStreamer, plan: MergePlan,
                      merge_tree: MergeTree, store: PartialMatrixStore,
                      pipelined: bool, round_lengths: list[list[int]],
                      write: Callable[..., CSRMatrix]) -> CSRMatrix:
        """Run every merge round functionally, charging spill traffic.

        Appends each round's input stream lengths to ``round_lengths``, and
        hands the last round's merged stream to ``write``, whose result it
        returns.  When ``pipelined`` is false the model degenerates to the
        two-phase OuterSPACE dataflow: every leaf's multiplied result is
        written to DRAM before merging starts and read back when its round
        executes, exactly the behaviour the pipelined merge tree eliminates.
        """
        def gather(input_ids: tuple[int, ...]) -> list:
            streams = []
            for node_id in input_ids:
                if node_id < plan.num_leaves:
                    stream = streamer.leaf_stream(node_id)
                    if not pipelined:
                        # Two-phase dataflow: the multiplied result takes a
                        # round trip through DRAM before it can be merged.
                        store.round_trip(len(stream[0]))
                else:
                    stream = store.read(node_id)
                streams.append(stream)
            round_lengths.append([len(keys) for keys, _ in streams])
            return streams

        for merge_round in plan.rounds[:-1]:
            store.write(merge_round.output_id,
                        *merge_tree.merge(gather(merge_round.input_ids)))
        # The last round outputs the root.  A single leaf has no round but
        # still passes through the merge tree once.
        root_inputs = plan.rounds[-1].input_ids if plan.rounds else (0,)
        return merge_tree.merge(gather(root_inputs), write=write)


def _check_row_order(matrix_b: CSRMatrix) -> None:
    """Reject a right operand whose rows are not sorted by column.

    Every engine streams a right-operand row as an already key-sorted run
    of partial products.  Equal neighbours are allowed: the merge tree
    folds duplicates.
    """
    steps = np.diff(matrix_b.indices)
    # A step onto the first element of a row crosses rows, so it may drop.
    row_starts = matrix_b.indptr[1:-1]
    steps[row_starts[(row_starts > 0) & (row_starts < matrix_b.nnz)] - 1] = 0
    drops = np.flatnonzero(steps < 0)
    if len(drops):
        row = int(np.searchsorted(matrix_b.indptr, drops[0],
                                  side="right")) - 1
        raise ValueError(
            f"right operand row {row} has decreasing column indices; every "
            f"row of the right operand must be sorted by column")


def multiply(matrix_a: CSRMatrix, matrix_b: CSRMatrix,
             config: SpArchConfig | None = None) -> SpGEMMResult:
    """Convenience wrapper: simulate ``A · B`` on a fresh :class:`SpArch`.

    Args:
        matrix_a: left operand in CSR format.
        matrix_b: right operand in CSR format.
        config: optional architectural configuration (Table I by default).
    """
    return SpArch(config).multiply(matrix_a, matrix_b)
