"""Figure 13 — area and power breakdown per module.

The paper reports that the merge tree, as the core of SpArch, takes 60.6 %
of the area and 55.4 % of the power, with HBM at 26.2 % of power and the row
prefetcher at 20.4 % of area / 13.5 % of power.  This harness evaluates the
area model for the Table I configuration and the energy model over the
benchmark suite and prints both breakdowns.
"""

from __future__ import annotations

from repro.analysis.area import AreaModel, PAPER_AREA_MM2
from repro.analysis.energy import EnergyBreakdown, EnergyModel
from repro.core.config import SpArchConfig
from repro.experiments.common import ExperimentResult, load_scaled_suite
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.formats.csr import CSRMatrix
from repro.utils.reporting import Table

#: Power fractions reported in Figure 13(b).
PAPER_POWER_FRACTIONS = {
    "Column Fetcher": 0.012,
    "Row Prefetcher": 0.135,
    "Multiplier Array": 0.009,
    "Merge Tree": 0.554,
    "Partial Mat Writer": 0.028,
    "HBM": 0.262,
}


def run(*, max_rows: int = 800, names: list[str] | None = None,
        matrices: dict[str, CSRMatrix] | None = None,
        config: SpArchConfig | None = None,
        runner: ExperimentRunner | None = None) -> ExperimentResult:
    """Reproduce the Figure 13 area and power breakdowns."""
    config = config or SpArchConfig()
    if matrices is not None:
        workload = {name: (matrix, config) for name, matrix in matrices.items()}
    else:
        workload = load_scaled_suite(max_rows=max_rows, names=names,
                                     base_config=config)

    area = AreaModel().breakdown(config)
    area_total = area.total

    # Power is energy-weighted across the suite (each matrix squared).
    energy_model = EnergyModel()
    accumulated = EnergyBreakdown()
    total_runtime = 0.0
    sparch_stats = (runner or default_runner()).simulate_workload(workload)
    for name, (matrix, matrix_config) in workload.items():
        stats = sparch_stats[name]
        breakdown = energy_model.breakdown(stats, matrix_config)
        accumulated.column_fetcher += breakdown.column_fetcher
        accumulated.row_prefetcher += breakdown.row_prefetcher
        accumulated.multiplier_array += breakdown.multiplier_array
        accumulated.merge_tree += breakdown.merge_tree
        accumulated.partial_matrix_writer += breakdown.partial_matrix_writer
        accumulated.hbm += breakdown.hbm
        total_runtime += stats.runtime_seconds

    energy_fractions = accumulated.fractions()
    table = Table(
        title="Figure 13 — area (a) and power (b) breakdown",
        columns=["module", "area mm²", "area %", "paper area mm²",
                 "power %", "paper power %"],
    )
    metrics: dict[str, float] = {}
    paper_values: dict[str, float] = {}
    for module, area_mm2 in area.by_module().items():
        power_fraction = energy_fractions.get(module, 0.0)
        table.add_row(module, area_mm2, 100.0 * area_mm2 / area_total,
                      PAPER_AREA_MM2.get(module, 0.0),
                      100.0 * power_fraction,
                      100.0 * PAPER_POWER_FRACTIONS.get(module, 0.0))
        metrics[f"area_fraction[{module}]"] = area_mm2 / area_total
        metrics[f"power_fraction[{module}]"] = power_fraction
        paper_values[f"power_fraction[{module}]"] = PAPER_POWER_FRACTIONS.get(module, 0.0)
    table.add_row("HBM", 0.0, 0.0, 0.0,
                  100.0 * energy_fractions["HBM"],
                  100.0 * PAPER_POWER_FRACTIONS["HBM"])
    metrics["power_fraction[HBM]"] = energy_fractions["HBM"]
    paper_values["power_fraction[HBM]"] = PAPER_POWER_FRACTIONS["HBM"]
    metrics["total_area_mm2"] = area_total
    paper_values["total_area_mm2"] = 28.49
    metrics["average_power_watts"] = (accumulated.total / total_runtime
                                      if total_runtime > 0 else 0.0)
    paper_values["average_power_watts"] = 9.26

    return ExperimentResult(
        experiment_id="fig13",
        title="Area and power breakdown (Figure 13)",
        table=table,
        metrics=metrics,
        paper_values=paper_values,
    )

