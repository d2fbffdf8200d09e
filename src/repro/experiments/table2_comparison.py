"""Table II — area, power and bandwidth utilisation versus OuterSPACE.

The paper reports SpArch at 28.49 mm² / 9.26 W in 40 nm with 68.6 % HBM
bandwidth utilisation, against OuterSPACE's 87 mm² / 12.39 W / 48.3 % in
32 nm.  This harness evaluates the area and energy models for the Table I
configuration and measures the simulated bandwidth utilisation over the
benchmark suite.
"""

from __future__ import annotations

from repro.analysis.area import (
    AreaModel,
    OUTERSPACE_TOTAL_AREA_MM2,
    SPARCH_TOTAL_AREA_MM2,
)
from repro.analysis.energy import EnergyModel
from repro.baselines.outerspace import (
    OUTERSPACE_BANDWIDTH_UTILIZATION,
    OUTERSPACE_POWER_W,
)
from repro.core.config import SpArchConfig
from repro.experiments.common import ExperimentResult, load_scaled_suite
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.formats.csr import CSRMatrix
from repro.utils.reporting import Table

PAPER_METRICS = {
    "area_mm2[SpArch]": SPARCH_TOTAL_AREA_MM2,
    "area_mm2[OuterSPACE]": OUTERSPACE_TOTAL_AREA_MM2,
    "power_w[SpArch]": 9.26,
    "power_w[OuterSPACE]": OUTERSPACE_POWER_W,
    "bandwidth_utilization[SpArch]": 0.686,
    "bandwidth_utilization[OuterSPACE]": OUTERSPACE_BANDWIDTH_UTILIZATION,
}


def run(*, max_rows: int = 800, names: list[str] | None = None,
        matrices: dict[str, CSRMatrix] | None = None,
        config: SpArchConfig | None = None,
        runner: ExperimentRunner | None = None) -> ExperimentResult:
    """Reproduce the Table II comparison."""
    config = config or SpArchConfig()
    if matrices is not None:
        workload = {name: (matrix, config) for name, matrix in matrices.items()}
    else:
        workload = load_scaled_suite(max_rows=max_rows, names=names,
                                     base_config=config)

    area_model = AreaModel()
    energy_model = EnergyModel()

    total_energy = 0.0
    total_runtime = 0.0
    utilizations: list[float] = []
    sparch_stats = (runner or default_runner()).simulate_workload(workload)
    for name, (matrix, matrix_config) in workload.items():
        stats = sparch_stats[name]
        total_energy += energy_model.total_energy(stats, matrix_config)
        total_runtime += stats.runtime_seconds
        utilizations.append(stats.bandwidth_utilization)

    sparch_area = area_model.total_area(config)
    sparch_power = total_energy / total_runtime if total_runtime > 0 else 0.0
    sparch_utilization = sum(utilizations) / len(utilizations)

    table = Table(
        title="Table II — comparison with OuterSPACE",
        columns=["metric", "SpArch (measured)", "SpArch (paper)",
                 "OuterSPACE (paper)"],
    )
    table.add_row("Area (mm²)", sparch_area, SPARCH_TOTAL_AREA_MM2,
                  OUTERSPACE_TOTAL_AREA_MM2)
    table.add_row("Power (W)", sparch_power, 9.26, OUTERSPACE_POWER_W)
    table.add_row("Bandwidth utilisation", sparch_utilization, 0.686,
                  OUTERSPACE_BANDWIDTH_UTILIZATION)

    metrics = {
        "area_mm2[SpArch]": sparch_area,
        "area_mm2[OuterSPACE]": OUTERSPACE_TOTAL_AREA_MM2,
        "power_w[SpArch]": sparch_power,
        "power_w[OuterSPACE]": OUTERSPACE_POWER_W,
        "bandwidth_utilization[SpArch]": sparch_utilization,
        "bandwidth_utilization[OuterSPACE]": OUTERSPACE_BANDWIDTH_UTILIZATION,
    }
    return ExperimentResult(
        experiment_id="table2",
        title="Area / power / bandwidth utilisation vs OuterSPACE (Table II)",
        table=table,
        metrics=metrics,
        paper_values=dict(PAPER_METRICS),
    )

