"""Figure 14 — performance on synthetic rMAT matrices versus Intel MKL.

The paper sweeps rMAT matrices (dimension 5k–80k, average degree 4–32,
density 6×10⁻³ down to 5×10⁻⁵) and shows that SpArch not only exceeds 10×
MKL's throughput but also degrades far less as the matrices get sparser:
2.7× degradation from the densest to the sparsest configuration versus 5.9×
for MKL.
"""

from __future__ import annotations

from repro.baselines.gustavson import GustavsonSpGEMM
from repro.core.config import SpArchConfig
from repro.engines.sparch import SpArchEngine
from repro.experiments.common import ExperimentResult, scale_buffer_capacities
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.matrices.rmat import RMATConfig, generate_rmat, rmat_benchmark_name
from repro.utils.maths import geometric_mean
from repro.utils.reporting import Table

#: The paper's rMAT sweep: (rows, edge factor), in Figure 14 order
#: (densest → sparsest).  The full-size sweep uses 5k–80k rows.
PAPER_SWEEP: tuple[tuple[int, int], ...] = (
    (5_000, 32), (5_000, 16), (10_000, 32), (5_000, 8), (10_000, 16),
    (20_000, 32), (5_000, 4), (10_000, 8), (20_000, 16), (40_000, 32),
    (10_000, 4), (20_000, 8), (40_000, 16), (20_000, 4), (40_000, 8),
    (80_000, 16), (40_000, 4), (80_000, 8), (80_000, 4),
)

#: Headline numbers of Figure 14.
PAPER_METRICS = {
    "geomean_flops[SpArch]": 7.54e9,
    "geomean_flops[MKL]": 5.68e8,
    "degradation[SpArch]": 2.7,
    "degradation[MKL]": 5.9,
}


def scaled_sweep(scale: float) -> list[tuple[int, int]]:
    """The Figure 14 sweep with every dimension scaled by ``scale``.

    The edge factors (average degrees) are preserved so the density trend —
    the x-axis of Figure 14 — is preserved; only the absolute dimension
    shrinks to keep the pure-Python simulation tractable.
    """
    if not 0 < scale <= 1:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    return [(max(256, int(rows * scale)), degree) for rows, degree in PAPER_SWEEP]


def run(*, scale: float = 0.1, seed: int = 7,
        config: SpArchConfig | None = None,
        runner: ExperimentRunner | None = None) -> ExperimentResult:
    """Reproduce the Figure 14 rMAT sweep at a configurable scale.

    The on-chip capacities that shape the density trend — MKL's last-level
    cache and SpArch's prefetch buffer / look-ahead FIFO — are scaled by the
    same factor as the matrices, so the capacity-pressure regime (and hence
    the relative degradation of the two systems) matches the full-size sweep.
    """
    sweep = scaled_sweep(scale)
    sparch_config = scale_buffer_capacities(config or SpArchConfig(), scale)
    mkl = GustavsonSpGEMM(cache_bytes=max(64 * 2**10, 15 * 2**20 * scale))

    table = Table(
        title="Figure 14 — FLOPS on rMAT benchmarks (SpArch vs MKL)",
        columns=["benchmark", "density", "MKL FLOPS", "SpArch FLOPS", "ratio"],
    )
    runner = runner or default_runner()
    generated = [generate_rmat(RMATConfig(num_rows=rows, edge_factor=degree,
                                          seed=seed))
                 for rows, degree in sweep]
    sparch_reports = runner.run_engine_many(
        [(SpArchEngine(sparch_config), matrix) for matrix in generated])
    mkl_reports = runner.run_engine_many(
        [(mkl, matrix) for matrix in generated])
    sparch_flops: list[float] = []
    mkl_flops: list[float] = []
    for matrix, sparch, mkl_report, (orig_rows, degree) in zip(
            generated, sparch_reports, mkl_reports, PAPER_SWEEP):
        sparch_rate = sparch.flops / max(sparch.runtime_seconds, 1e-15)
        mkl_rate = mkl_report.flops / max(mkl_report.runtime_seconds, 1e-15)
        sparch_flops.append(sparch_rate)
        mkl_flops.append(mkl_rate)
        table.add_row(rmat_benchmark_name(orig_rows, degree), matrix.density,
                      mkl_rate, sparch_rate, sparch_rate / max(mkl_rate, 1e-9))
    table.add_row("Geo Mean", "-", geometric_mean(mkl_flops),
                  geometric_mean(sparch_flops),
                  geometric_mean(sparch_flops) / geometric_mean(mkl_flops))

    # Degradation: throughput of the densest configurations relative to the
    # sparsest ones (first vs last quarter of the Figure 14 ordering).
    quarter = max(1, len(sweep) // 4)
    degradation_sparch = (geometric_mean(sparch_flops[:quarter])
                          / geometric_mean(sparch_flops[-quarter:]))
    degradation_mkl = (geometric_mean(mkl_flops[:quarter])
                       / geometric_mean(mkl_flops[-quarter:]))

    metrics = {
        "geomean_flops[SpArch]": geometric_mean(sparch_flops),
        "geomean_flops[MKL]": geometric_mean(mkl_flops),
        "degradation[SpArch]": degradation_sparch,
        "degradation[MKL]": degradation_mkl,
        "geomean_speedup_over_mkl": (geometric_mean(sparch_flops)
                                     / geometric_mean(mkl_flops)),
    }
    return ExperimentResult(
        experiment_id="fig14",
        title="rMAT sweep vs Intel MKL (Figure 14)",
        table=table,
        metrics=metrics,
        paper_values=dict(PAPER_METRICS),
        notes=[f"rMAT dimensions scaled by {scale:g} (degrees preserved)"],
    )

