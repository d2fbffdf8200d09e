"""Per-event energy and power model (Table III, Figure 13b).

The paper measures power by synthesising the comparator arrays in a TSMC
40 nm library, using published floating-point-unit numbers for the
arithmetic, CACTI for the SRAMs, and the JEDEC HBM2 figure of 42.6 GB/s/W
for DRAM.  We reproduce the same *structure* with a per-event energy model:
every simulated event (multiplication, addition, comparator operation, SRAM
element access, DRAM byte) is charged a fixed energy, and the per-module
sums give the Figure 13b breakdown.  The constants are 40 nm-class numbers
calibrated so that the Table I configuration lands at the paper's reported
operating point (≈ 0.89 nJ per useful FLOP, merge tree ≈ 55 % of power,
HBM ≈ 26 %); DESIGN.md §3 records the substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.config import SpArchConfig
from repro.core.stats import SimulationStats
from repro.memory.traffic import TrafficCategory

if TYPE_CHECKING:  # annotation only; repro.metrics imports this module
    from repro.metrics.report import CostReport

#: JEDEC HBM2 energy efficiency used by the paper: 42.6 GB/s per watt.
HBM_GBPS_PER_WATT = 42.6

#: Energy per DRAM byte implied by 42.6 GB/s/W (≈ 23.5 pJ/byte).
ENERGY_PER_DRAM_BYTE = 1.0 / (HBM_GBPS_PER_WATT * 1e9)


@dataclass(frozen=True)
class EnergyConstants:
    """Per-event energy constants (joules per event), 40 nm class.

    Attributes:
        multiply: one FP64 multiplication (Galal & Horowitz-style FPU).
        add: one FP64 addition in the merge tree's adder slice.
        comparator_op: one 64-bit comparator evaluation in a merge array.
        merge_fifo_element: moving one 16-byte element through a merge-tree
            FIFO (write + read of a small SRAM).
        prefetch_element: one 12-byte element access of the large MatB
            prefetch buffer (576 KB SRAM — more expensive per access).
        fetcher_element: one element through the MatA column fetcher's
            look-ahead FIFO.
        writer_element: one element buffered by the partial matrix writer.
        dram_byte: one byte moved to/from HBM.
    """

    multiply: float = 20e-12
    add: float = 12e-12
    comparator_op: float = 7e-12
    merge_fifo_element: float = 60e-12
    prefetch_element: float = 150e-12
    fetcher_element: float = 15e-12
    writer_element: float = 30e-12
    dram_byte: float = ENERGY_PER_DRAM_BYTE


@dataclass
class EnergyBreakdown:
    """Energy (J) per module for one simulated execution."""

    column_fetcher: float = 0.0
    row_prefetcher: float = 0.0
    multiplier_array: float = 0.0
    merge_tree: float = 0.0
    partial_matrix_writer: float = 0.0
    hbm: float = 0.0

    @property
    def total(self) -> float:
        """Total dynamic energy in joules."""
        return (self.column_fetcher + self.row_prefetcher + self.multiplier_array
                + self.merge_tree + self.partial_matrix_writer + self.hbm)

    @property
    def on_chip(self) -> float:
        """Energy excluding DRAM (the accelerator logic and SRAM)."""
        return self.total - self.hbm

    def by_module(self) -> dict[str, float]:
        """Return ``{module name: joules}`` in Figure 13 order."""
        return {
            "Column Fetcher": self.column_fetcher,
            "Row Prefetcher": self.row_prefetcher,
            "Multiplier Array": self.multiplier_array,
            "Merge Tree": self.merge_tree,
            "Partial Mat Writer": self.partial_matrix_writer,
            "HBM": self.hbm,
        }

    def fractions(self) -> dict[str, float]:
        """Return each module's share of the total energy."""
        total = self.total
        if total <= 0:
            return {name: 0.0 for name in self.by_module()}
        return {name: value / total for name, value in self.by_module().items()}


@dataclass(frozen=True)
class EnergyModel:
    """Computes energy, power and nJ/FLOP figures from simulation statistics.

    Args:
        constants: per-event energy constants; the defaults reproduce the
            paper's operating point for the Table I configuration.
    """

    constants: EnergyConstants = field(default_factory=EnergyConstants)

    def breakdown(self, stats: SimulationStats, config: SpArchConfig | None = None
                  ) -> EnergyBreakdown:
        """Charge every simulated event and return the per-module energy.

        Args:
            stats: statistics of one simulated SpGEMM execution.
            config: architectural configuration (defaults to Table I); used
                only for structural quantities not recorded in ``stats``.
        """
        config = config or SpArchConfig()
        constants = self.constants

        # Left-matrix elements stream through the look-ahead FIFO once.
        a_elements = stats.traffic.bytes_by_category.get(
            TrafficCategory.MATRIX_A_READ, 0) // max(1, config.element_bytes)
        # Elements entering the prefetch buffer (misses) plus those served
        # from it (hits) each touch the large SRAM once.
        b_read_bytes = stats.traffic.bytes_by_category.get(
            TrafficCategory.MATRIX_B_READ, 0)
        prefetch_accesses = (b_read_bytes // max(1, config.prefetch_element_bytes)
                             + stats.buffer_element_reads)

        merge_fifo_traffic = stats.merge_tree_elements * config.merge_tree_layers

        return EnergyBreakdown(
            column_fetcher=a_elements * constants.fetcher_element,
            row_prefetcher=prefetch_accesses * constants.prefetch_element,
            multiplier_array=stats.multiplications * constants.multiply,
            merge_tree=(stats.comparator_ops * constants.comparator_op
                        + stats.additions * constants.add
                        + merge_fifo_traffic * constants.merge_fifo_element),
            partial_matrix_writer=stats.output_nnz * constants.writer_element,
            hbm=stats.dram_bytes * constants.dram_byte,
        )

    def total_energy(self, stats: SimulationStats,
                     config: SpArchConfig | None = None) -> float:
        """Total dynamic energy of one execution, in joules."""
        return self.breakdown(stats, config).total

    def average_power(self, stats: SimulationStats,
                      config: SpArchConfig | None = None) -> float:
        """Average dynamic power over the execution, in watts."""
        if stats.runtime_seconds <= 0:
            return 0.0
        return self.total_energy(stats, config) / stats.runtime_seconds

    def energy_per_flop(self, stats: SimulationStats,
                        config: SpArchConfig | None = None) -> float:
        """Energy per useful FLOP (the Table III metric), in joules."""
        flops = stats.flops
        if flops == 0:
            return 0.0
        return self.total_energy(stats, config) / flops

    # ------------------------------------------------------------------
    # CostReport views: the same accounting for every registered engine
    # ------------------------------------------------------------------
    def event_energy(self, *, multiplications: int, additions: int,
                     bookkeeping_ops: int, dram_bytes: int
                     ) -> dict[str, float]:
        """Uniform per-event energy of any engine's canonical counters.

        This is the accounting that extends Table III-style energy to the
        baselines: every multiplication, addition, bookkeeping operation
        (charged at the comparator rate — one key comparison / hash probe /
        heap sift class event) and DRAM byte costs the same per-event
        energy regardless of which engine performed it.  DESIGN.md records
        the rationale.
        """
        constants = self.constants
        return {
            "Computation": (multiplications * constants.multiply
                            + additions * constants.add),
            "Bookkeeping": bookkeeping_ops * constants.comparator_op,
            "DRAM": dram_bytes * constants.dram_byte,
        }

    def report_categories(self, report: "CostReport") -> dict[str, float]:
        """Table III-style category split (joules) for *any* cost report.

        Dispatches on the report's ``kind``: simulation reports group their
        per-module energy the way Table III does (Computation = multipliers
        + merge tree, SRAM = the three buffers, DRAM = HBM) — exact, since
        the module split was recorded at simulation time.  Baseline and
        aggregate reports use the uniform per-event accounting of
        :meth:`event_energy` over their canonical counters (an aggregate
        may mix engines, so per-event is the only split that never drops
        energy) — which is exactly what makes the category view comparable
        across engines.
        """
        if report.kind == "simulation":
            modules = report.energy
            return {
                "Computation": (modules.get("Multiplier Array", 0.0)
                                + modules.get("Merge Tree", 0.0)),
                "SRAM": (modules.get("Column Fetcher", 0.0)
                         + modules.get("Row Prefetcher", 0.0)
                         + modules.get("Partial Mat Writer", 0.0)),
                "DRAM": modules.get("HBM", 0.0),
            }
        events = self.event_energy(
            multiplications=report.multiplications,
            additions=report.additions,
            bookkeeping_ops=report.bookkeeping_ops,
            dram_bytes=report.dram_bytes,
        )
        return {
            "Computation": events["Computation"] + events["Bookkeeping"],
            "SRAM": 0.0,
            "DRAM": events["DRAM"],
        }
