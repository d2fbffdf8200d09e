"""Simulation result containers.

:class:`SimulationStats` aggregates everything the experiments need:
functional counts (multiplications, additions, output nonzeros), DRAM
traffic by category, cycle counts, derived performance (GFLOPS, bandwidth
utilisation) and datapath activity (comparator operations, buffer hit rate).
:class:`SpGEMMResult` bundles those statistics with the functional result.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.formats.csr import CSRMatrix
from repro.memory.traffic import TrafficCategory, TrafficCounter

if TYPE_CHECKING:
    from repro.core.accelerator import Dataflow


@dataclass
class SimulationStats:
    """Aggregate statistics of one simulated SpGEMM execution.

    Attributes:
        cycles: total simulated core cycles.
        runtime_seconds: ``cycles / clock_hz``.
        multiplications: scalar multiplications performed.
        additions: scalar additions performed while folding duplicates.
        output_nnz: nonzeros of the final result.
        traffic: DRAM traffic broken down by category.
        num_partial_matrices: leaves of the merge schedule (after condensing,
            if enabled).
        num_merge_rounds: rounds executed on the merge tree.
        condensed_columns: condensed column count of the left operand
            (equals the partial matrix count when condensing is enabled).
        prefetch_hit_rate: element hit rate of the MatB row buffer.
        prefetch_bytes_saved: DRAM bytes the row buffer avoided re-reading.
        comparator_ops: comparator operations in the merge tree.
        memory_cycles: cycles attributable to DRAM transfers.
        compute_cycles: cycles attributable to the multiply/merge datapath.
        scheduler: name of the merge scheduler used.
    """

    cycles: int = 0
    runtime_seconds: float = 0.0
    multiplications: int = 0
    additions: int = 0
    output_nnz: int = 0
    traffic: TrafficCounter = field(default_factory=TrafficCounter)
    num_partial_matrices: int = 0
    num_merge_rounds: int = 0
    condensed_columns: int = 0
    prefetch_hit_rate: float = 0.0
    prefetch_bytes_saved: int = 0
    comparator_ops: int = 0
    memory_cycles: int = 0
    compute_cycles: int = 0
    merge_tree_elements: int = 0
    buffer_element_reads: int = 0
    scheduler: str = "huffman"
    clock_hz: float = 1e9
    peak_bandwidth_bytes_per_cycle: float = 128.0

    # ------------------------------------------------------------------
    @property
    def flops(self) -> int:
        """Useful floating point operations (multiplications + additions)."""
        return self.multiplications + self.additions

    @property
    def gflops(self) -> float:
        """Achieved GFLOP/s at the simulated clock."""
        if self.runtime_seconds <= 0:
            return 0.0
        return self.flops / self.runtime_seconds / 1e9

    @property
    def dram_bytes(self) -> int:
        """Total DRAM traffic in bytes."""
        return self.traffic.total_bytes

    @property
    def operational_intensity(self) -> float:
        """FLOPs per DRAM byte actually moved."""
        if self.dram_bytes == 0:
            return 0.0
        return self.flops / self.dram_bytes

    @property
    def bandwidth_utilization(self) -> float:
        """Fraction of peak DRAM bandwidth used over the whole execution."""
        if self.cycles <= 0:
            return 0.0
        peak = self.peak_bandwidth_bytes_per_cycle * self.cycles
        return min(1.0, self.dram_bytes / peak) if peak else 0.0

    def to_dict(self) -> dict:
        """Serialise every field to a JSON-compatible dict.

        The experiment runner memoises simulation results on disk through
        this round trip; :meth:`from_dict` restores an equal instance.
        """
        payload = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self) if f.name != "traffic"
        }
        payload["traffic"] = self.traffic.by_category()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SimulationStats":
        """Inverse of :meth:`to_dict`."""
        data = dict(payload)
        traffic = TrafficCounter()
        for name, num_bytes in data.pop("traffic", {}).items():
            traffic.add(TrafficCategory(name), int(num_bytes))
        return cls(traffic=traffic, **data)


@dataclass
class SpGEMMResult:
    """Functional result plus simulation statistics of one SpGEMM run.

    ``dataflow`` is the :class:`~repro.core.accelerator.Dataflow` the run
    priced, which other configurations sharing its dataflow key can price
    too.
    """

    matrix: CSRMatrix
    stats: SimulationStats
    dataflow: Dataflow | None = field(default=None, compare=False)

    @property
    def nnz(self) -> int:
        """Nonzeros of the result matrix."""
        return self.matrix.nnz

    def __repr__(self) -> str:
        return (f"SpGEMMResult(nnz={self.nnz}, cycles={self.stats.cycles}, "
                f"gflops={self.stats.gflops:.2f})")
