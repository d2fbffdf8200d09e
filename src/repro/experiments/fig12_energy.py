"""Figure 12 — energy saving of SpArch over the five baselines.

The paper reports per-matrix energy savings with geometric means of 6×,
164×, 435×, 307× and 62× over OuterSPACE, MKL, cuSPARSE, CUSP and ARM
Armadillo.  SpArch's energy comes from the per-event model of
:mod:`repro.analysis.energy`; each baseline's energy is its modelled runtime
times the platform's dynamic power (the same methodology the paper uses with
measured powers).
"""

from __future__ import annotations

from repro.core.config import SpArchConfig
from repro.engines.base import Engine
from repro.experiments.common import (
    ExperimentResult,
    baseline_ratio_table,
    load_scaled_suite,
)
from repro.experiments.fig11_speedup import default_baselines
from repro.experiments.runner import ExperimentRunner
from repro.formats.csr import CSRMatrix

#: Geometric-mean energy savings reported by the paper (Figure 12).
PAPER_GEOMEAN_ENERGY_SAVING = {
    "OuterSPACE": 6.07,
    "MKL": 163.89,
    "cuSPARSE": 435.27,
    "CUSP": 306.71,
    "Armadillo": 62.20,
}


def run(*, max_rows: int = 1000, names: list[str] | None = None,
        matrices: dict[str, CSRMatrix] | None = None,
        config: SpArchConfig | None = None,
        baselines: list[Engine] | None = None,
        runner: ExperimentRunner | None = None) -> ExperimentResult:
    """Reproduce Figure 12 on the (scaled) benchmark suite."""
    config = config or SpArchConfig()
    if matrices is not None:
        workload = {name: (matrix, config) for name, matrix in matrices.items()}
    else:
        workload = load_scaled_suite(max_rows=max_rows, names=names,
                                     base_config=config)
    baselines = baselines if baselines is not None else default_baselines()

    # The unified CostReport carries each point's headline energy (the
    # per-event module sum for SpArch, modelled runtime × power for the
    # baselines — the paper's Figure 12 methodology), so the saving is one
    # ratio of two reports.
    table, geomeans, reports = baseline_ratio_table(
        "Figure 12 — energy saving of SpArch over baselines", workload,
        baselines, metric="energy_joules", floor=1e-18, runner=runner)

    metrics = {f"geomean_energy_saving[{name}]": value
               for name, value in geomeans.items()}
    paper_values = {f"geomean_energy_saving[{name}]": value
                    for name, value in PAPER_GEOMEAN_ENERGY_SAVING.items()
                    if f"geomean_energy_saving[{name}]" in metrics}
    return ExperimentResult(
        experiment_id="fig12",
        title="Energy saving over OuterSPACE, MKL, cuSPARSE, CUSP, Armadillo (Figure 12)",
        table=table,
        metrics=metrics,
        paper_values=paper_values,
        notes=[f"benchmark proxies capped at {max_rows} rows with "
               "proxy-scaled on-chip buffers (DESIGN.md §3, EXPERIMENTS.md)"],
        reports=reports,
    )

