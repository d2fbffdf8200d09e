"""Table III — energy and area breakdown per component (nJ/FLOP, mm²).

The paper splits energy per useful FLOP into computation, SRAM, DRAM and
(for OuterSPACE) crossbar contributions: 0.89 nJ/FLOP overall for SpArch
versus 4.95 nJ/FLOP for OuterSPACE, and 28.5 mm² versus 86.7 mm² of area.
SpArch's numbers come from the per-event energy model evaluated over the
benchmark suite; OuterSPACE's come from its modelled runtime and published
power/area.
"""

from __future__ import annotations

from repro.analysis.area import AreaModel, OUTERSPACE_TOTAL_AREA_MM2
from repro.analysis.energy import EnergyModel
from repro.baselines.outerspace import OuterSpaceAccelerator
from repro.core.config import SpArchConfig
from repro.engines.sparch import SpArchEngine
from repro.experiments.common import ExperimentResult, load_scaled_suite
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.formats.csr import CSRMatrix
from repro.utils.reporting import Table

#: Table III as published (nJ/FLOP and mm²).
PAPER_TABLE3 = {
    "energy_per_flop[SpArch]": 0.89,
    "energy_per_flop[OuterSPACE]": 4.95,
    "area_mm2[SpArch]": 28.5,
    "area_mm2[OuterSPACE]": 86.7,
}


def run(*, max_rows: int = 800, names: list[str] | None = None,
        matrices: dict[str, CSRMatrix] | None = None,
        config: SpArchConfig | None = None,
        runner: ExperimentRunner | None = None) -> ExperimentResult:
    """Reproduce the Table III energy/area breakdown."""
    config = config or SpArchConfig()
    if matrices is not None:
        workload = {name: (matrix, config) for name, matrix in matrices.items()}
    else:
        workload = load_scaled_suite(max_rows=max_rows, names=names,
                                     base_config=config)

    energy_model = EnergyModel()
    runner = runner or default_runner()

    # Both systems come back as canonical CostReports; the Table III
    # category split is the uniform report view of the energy model
    # (module grouping for SpArch, per-event accounting for baselines).
    names_in_order = list(workload)
    sparch_reports = dict(zip(names_in_order, runner.run_engine_many(
        [(SpArchEngine(matrix_config or config), matrix)
         for _, (matrix, matrix_config) in workload.items()])))
    outerspace_reports = dict(zip(names_in_order, runner.run_engine_many(
        [(OuterSpaceAccelerator(), matrix)
         for _, (matrix, _) in workload.items()])))

    sparch_categories = {"Computation": 0.0, "SRAM": 0.0, "DRAM": 0.0}
    sparch_flops = 0
    outerspace_energy = 0.0
    outerspace_flops = 0
    for name in names_in_order:
        report = sparch_reports[name]
        for category, joules in energy_model.report_categories(report).items():
            sparch_categories[category] += joules
        sparch_flops += report.flops

        outer_report = outerspace_reports[name]
        outerspace_energy += outer_report.energy_joules
        outerspace_flops += outer_report.flops

    sparch_per_flop = {category: 1e9 * value / max(1, sparch_flops)
                       for category, value in sparch_categories.items()}
    sparch_total = sum(sparch_per_flop.values())
    outerspace_per_flop = 1e9 * outerspace_energy / max(1, outerspace_flops)

    area_model = AreaModel()
    area = area_model.breakdown(config)
    sparch_compute_area = area.multiplier_array + area.merge_tree
    sparch_sram_area = (area.column_fetcher + area.row_prefetcher
                        + area.partial_matrix_writer)

    table = Table(
        title="Table III — energy and area breakdown",
        columns=["component", "SpArch nJ/FLOP", "paper", "SpArch mm²", "paper"],
    )
    table.add_row("Computation", sparch_per_flop["Computation"], 0.26,
                  sparch_compute_area, 4.1)
    table.add_row("SRAM", sparch_per_flop["SRAM"], 0.34, sparch_sram_area, 24.4)
    table.add_row("DRAM", sparch_per_flop["DRAM"], 0.29, "-", "-")
    table.add_row("Overall", sparch_total, 0.89, area.total, 28.5)
    table.add_row("OuterSPACE overall", outerspace_per_flop, 4.95,
                  OUTERSPACE_TOTAL_AREA_MM2, 86.7)

    metrics = {
        "energy_per_flop[SpArch]": sparch_total,
        "energy_per_flop[OuterSPACE]": outerspace_per_flop,
        "area_mm2[SpArch]": area.total,
        "area_mm2[OuterSPACE]": OUTERSPACE_TOTAL_AREA_MM2,
        "energy_ratio": outerspace_per_flop / max(sparch_total, 1e-12),
    }
    return ExperimentResult(
        experiment_id="table3",
        title="Energy and area breakdown (Table III)",
        table=table,
        metrics=metrics,
        paper_values=dict(PAPER_TABLE3),
        reports={**{f"SpArch[{name}]": report
                    for name, report in sparch_reports.items()},
                 **{f"OuterSPACE[{name}]": report
                    for name, report in outerspace_reports.items()}},
    )

