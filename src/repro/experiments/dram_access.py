"""Headline DRAM-access comparison: SpArch moves 2.8× fewer bytes.

The abstract's headline claim is a 2.8× reduction in total DRAM access over
OuterSPACE on the 20-benchmark suite.  This harness measures the simulated
byte counts of both accelerators on the (scaled) suite and reports the
per-matrix and geometric-mean reduction, split by traffic category.
"""

from __future__ import annotations

from repro.baselines.outerspace import OuterSpaceAccelerator
from repro.core.config import SpArchConfig
from repro.experiments.common import ExperimentResult, load_scaled_suite
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.formats.csr import CSRMatrix
from repro.utils.maths import geometric_mean
from repro.utils.reporting import Table

PAPER_METRICS = {
    "geomean_dram_reduction": 2.8,
}


def run(*, max_rows: int = 1000, names: list[str] | None = None,
        matrices: dict[str, CSRMatrix] | None = None,
        config: SpArchConfig | None = None,
        runner: ExperimentRunner | None = None) -> ExperimentResult:
    """Measure the DRAM-access reduction of SpArch over OuterSPACE."""
    config = config or SpArchConfig()
    if matrices is not None:
        workload = {name: (matrix, config) for name, matrix in matrices.items()}
    else:
        workload = load_scaled_suite(max_rows=max_rows, names=names,
                                     base_config=config)
    outerspace = OuterSpaceAccelerator()

    table = Table(
        title="Total DRAM access: SpArch vs OuterSPACE",
        columns=["matrix", "SpArch bytes", "OuterSPACE bytes", "reduction",
                 "SpArch partial bytes", "SpArch input bytes"],
    )
    reductions: list[float] = []
    runner = runner or default_runner()
    sparch_stats = runner.simulate_workload(workload)
    outer_reports = runner.run_engine_many(
        [(outerspace, matrix) for matrix, _ in workload.values()])
    for name, outer_report in zip(workload, outer_reports):
        stats = sparch_stats[name]
        sparch_bytes = stats.dram_bytes
        reduction = outer_report.dram_bytes / max(1, sparch_bytes)
        reductions.append(reduction)
        table.add_row(name, sparch_bytes, outer_report.dram_bytes, reduction,
                      stats.traffic.partial_matrix_bytes,
                      stats.traffic.input_bytes)
    geomean = geometric_mean(reductions)
    table.add_row("Geo Mean", "-", "-", geomean, "-", "-")

    return ExperimentResult(
        experiment_id="dram",
        title="DRAM access reduction over OuterSPACE (headline)",
        table=table,
        metrics={"geomean_dram_reduction": geomean},
        paper_values=dict(PAPER_METRICS),
    )

