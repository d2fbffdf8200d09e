"""Figure 11 — speedup of SpArch over the five baselines, per matrix.

The paper reports, for each of the 20 benchmark matrices, the speedup of
SpArch over OuterSPACE, Intel MKL, cuSPARSE, CUSP and ARM Armadillo, with
geometric means of 4×, 19×, 18×, 17× and 1285× respectively.

This harness runs every matrix (as a synthetic proxy — see DESIGN.md §3)
through the SpArch simulator and through each baseline's functional
implementation + platform model, and prints the same per-matrix rows and
geomean that the paper's Figure 11 plots.
"""

from __future__ import annotations

from repro.baselines import (
    ArmadilloSpGEMM,
    ESCSpGEMM,
    GustavsonSpGEMM,
    HashSpGEMM,
    OuterSpaceAccelerator,
)
from repro.core.config import SpArchConfig
from repro.engines.base import Engine
from repro.experiments.common import (
    ExperimentResult,
    baseline_ratio_table,
    load_scaled_suite,
)
from repro.experiments.runner import ExperimentRunner
from repro.formats.csr import CSRMatrix

#: Geometric-mean speedups reported by the paper (Figure 11).
PAPER_GEOMEAN_SPEEDUP = {
    "OuterSPACE": 4.15,
    "MKL": 18.67,
    "cuSPARSE": 17.56,
    "CUSP": 16.55,
    "Armadillo": 1284.83,
}


def default_baselines() -> list[Engine]:
    """The five comparison systems of Figure 11, in paper order."""
    return [OuterSpaceAccelerator(), GustavsonSpGEMM(), HashSpGEMM(),
            ESCSpGEMM(), ArmadilloSpGEMM()]


def run(*, max_rows: int = 1000, names: list[str] | None = None,
        matrices: dict[str, CSRMatrix] | None = None,
        config: SpArchConfig | None = None,
        baselines: list[Engine] | None = None,
        runner: ExperimentRunner | None = None) -> ExperimentResult:
    """Reproduce Figure 11 on the (scaled) benchmark suite.

    Args:
        max_rows: proxy dimension cap for the suite matrices.
        names: subset of benchmark names (default: all 20).
        matrices: explicit matrices to use instead of the generated suite.
        config: SpArch configuration (Table I by default).
        baselines: comparison systems (the paper's five by default).
        runner: experiment runner providing memoised/batched simulation.
    """
    if matrices is not None:
        workload = {name: (matrix, config) for name, matrix in matrices.items()}
    else:
        workload = load_scaled_suite(max_rows=max_rows, names=names,
                                     base_config=config)
    baselines = baselines if baselines is not None else default_baselines()

    # Every point — SpArch and baselines alike — goes through the engine
    # registry and comes back as a canonical CostReport; the speedup is one
    # runtime ratio regardless of which system produced each side.
    table, geomeans, reports = baseline_ratio_table(
        "Figure 11 — speedup of SpArch over baselines", workload, baselines,
        metric="runtime_seconds", floor=1e-15, runner=runner)

    metrics = {f"geomean_speedup[{name}]": value for name, value in geomeans.items()}
    paper_values = {f"geomean_speedup[{name}]": value
                    for name, value in PAPER_GEOMEAN_SPEEDUP.items()
                    if f"geomean_speedup[{name}]" in metrics}
    return ExperimentResult(
        experiment_id="fig11",
        title="Speedup over OuterSPACE, MKL, cuSPARSE, CUSP, Armadillo (Figure 11)",
        table=table,
        metrics=metrics,
        paper_values=paper_values,
        notes=[f"benchmark proxies capped at {max_rows} rows with "
               "proxy-scaled on-chip buffers (DESIGN.md §3, EXPERIMENTS.md)"],
        reports=reports,
    )

