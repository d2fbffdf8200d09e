"""Figure 15 — roofline analysis of SpArch and OuterSPACE.

The paper computes a theoretical operational intensity of 0.19 FLOP/byte for
the outer product on its dataset, a 32 GFLOP/s compute roof (16 multipliers
+ adders at 1 GHz) and hence a 23.9 GFLOP/s bandwidth roof at 128 GB/s.
SpArch achieves 10.4 GFLOP/s against OuterSPACE's 2.5 GFLOP/s — 2.3× and
9.6× below the roof respectively.
"""

from __future__ import annotations

from repro.analysis.roofline import (
    PAPER_OPERATIONAL_INTENSITY,
    compulsory_traffic_bytes_from_counts,
    roofline_analysis,
)
from repro.baselines.outerspace import OuterSpaceAccelerator
from repro.core.config import SpArchConfig
from repro.experiments.common import ExperimentResult
from repro.experiments.designspace import GEOMEAN_FLOOR
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.formats.csr import CSRMatrix
from repro.matrices.suite import load_suite
from repro.utils.maths import geometric_mean
from repro.utils.reporting import Table

PAPER_METRICS = {
    "operational_intensity": PAPER_OPERATIONAL_INTENSITY,
    "roof_gflops": 23.9,
    "achieved_gflops[SpArch]": 10.4,
    "achieved_gflops[OuterSPACE]": 2.5,
}


def run(*, max_rows: int = 1000, names: list[str] | None = None,
        matrices: dict[str, CSRMatrix] | None = None,
        config: SpArchConfig | None = None,
        runner: ExperimentRunner | None = None) -> ExperimentResult:
    """Reproduce the Figure 15 roofline numbers on the benchmark suite."""
    config = config or SpArchConfig()
    matrices = matrices or load_suite(max_rows=max_rows, names=names)
    runner = runner or default_runner()
    outerspace = OuterSpaceAccelerator()

    sparch_stats = runner.simulate_many(
        [(matrix, config) for matrix in matrices.values()])
    outer_reports = runner.run_engine_many(
        [(outerspace, matrix) for matrix in matrices.values()])
    intensities: list[float] = []
    sparch_gflops: list[float] = []
    outerspace_gflops: list[float] = []
    for matrix, stats, outer_report in zip(matrices.values(), sparch_stats,
                                           outer_reports):
        compulsory = compulsory_traffic_bytes_from_counts(
            matrix.nnz, matrix.nnz, stats.output_nnz,
            element_bytes=config.element_bytes)
        intensities.append(stats.flops / compulsory if compulsory else 0.0)
        sparch_gflops.append(max(stats.gflops, GEOMEAN_FLOOR))
        outerspace_gflops.append(max(outer_report.gflops, GEOMEAN_FLOOR))

    intensity = geometric_mean(intensities)
    sparch_point = _aggregate_point("SpArch", intensity,
                                    geometric_mean(sparch_gflops), config)
    outerspace_point = _aggregate_point("OuterSPACE", intensity,
                                        geometric_mean(outerspace_gflops), config)

    table = Table(
        title="Figure 15 — roofline model",
        columns=["design", "OI (FLOP/B)", "achieved GFLOP/s", "roof GFLOP/s",
                 "fraction of roof"],
    )
    for point in (sparch_point, outerspace_point):
        table.add_row(point.name, point.operational_intensity,
                      point.achieved_gflops, point.roof_gflops,
                      point.roof_fraction)

    metrics = {
        "operational_intensity": intensity,
        "roof_gflops": sparch_point.roof_gflops,
        "achieved_gflops[SpArch]": sparch_point.achieved_gflops,
        "achieved_gflops[OuterSPACE]": outerspace_point.achieved_gflops,
        "roof_gap[SpArch]": sparch_point.roof_gflops / sparch_point.achieved_gflops,
        "roof_gap[OuterSPACE]": (outerspace_point.roof_gflops
                                 / outerspace_point.achieved_gflops),
    }
    return ExperimentResult(
        experiment_id="fig15",
        title="Roofline model for SpArch and OuterSPACE (Figure 15)",
        table=table,
        metrics=metrics,
        paper_values=dict(PAPER_METRICS),
    )


def _aggregate_point(name: str, intensity: float, gflops: float,
                     config: SpArchConfig):
    """Build a roofline point from aggregate numbers."""
    from repro.core.stats import SimulationStats

    stats = SimulationStats(clock_hz=config.clock_hz,
                            peak_bandwidth_bytes_per_cycle=config.hbm.bytes_per_cycle)
    stats.cycles = 1
    stats.runtime_seconds = 1.0
    stats.multiplications = int(gflops * 1e9)
    point = roofline_analysis(stats, name=name, config=config,
                              operational_intensity=intensity)
    return point

