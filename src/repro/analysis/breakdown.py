"""Cumulative-technique performance breakdown (Figure 2 / Figure 16).

The paper dissects its speedup by adding the four techniques one at a time,
starting from the OuterSPACE baseline:

1. pipelined multiply and merge *only* (CSC/CSR formats, random order, no
   prefetcher) — 5.7× **slower** than OuterSPACE because the partially
   merged results of ~140,000 partial matrices thrash DRAM;
2. + matrix condensing — 8.8× speedup over the previous step;
3. + Huffman tree scheduler — 1.5× further;
4. + row prefetcher — 1.8× further, for ≈ 4.2× over OuterSPACE overall.

:func:`cumulative_breakdown` replays that walk on a set of matrices using
the ablation switches of :class:`~repro.core.config.SpArchConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.outerspace import OuterSpaceAccelerator
from repro.core.config import SpArchConfig
from repro.engines.adapters import BaselineEngineAdapter
from repro.engines.sparch import SpArchEngine
from repro.formats.csr import CSRMatrix
from repro.metrics.report import CostReport
from repro.utils.maths import geometric_mean


@dataclass(frozen=True)
class BreakdownStep:
    """One bar of Figure 16.

    Attributes:
        name: label of the configuration step.
        gflops: geometric-mean achieved GFLOP/s across the matrices.
        dram_bytes: total DRAM traffic summed across the matrices.
        speedup_vs_previous: ratio of this step's throughput to the previous
            step's (the annotations along Figure 2).
        speedup_vs_outerspace: ratio to the OuterSPACE baseline.
    """

    name: str
    gflops: float
    dram_bytes: int
    speedup_vs_previous: float
    speedup_vs_outerspace: float


#: The cumulative feature walk of Figure 16, in order.
BREAKDOWN_STEPS: tuple[tuple[str, dict[str, bool]], ...] = (
    ("Pipelined Multiply and Merge",
     dict(pipelined_merge=True, matrix_condensing=False,
          huffman_scheduler=False, row_prefetcher=False)),
    ("+ Matrix Condensing",
     dict(pipelined_merge=True, matrix_condensing=True,
          huffman_scheduler=False, row_prefetcher=False)),
    ("+ Huffman Tree Scheduler",
     dict(pipelined_merge=True, matrix_condensing=True,
          huffman_scheduler=True, row_prefetcher=False)),
    ("+ Row Prefetcher",
     dict(pipelined_merge=True, matrix_condensing=True,
          huffman_scheduler=True, row_prefetcher=True)),
)


def cumulative_breakdown(matrices: dict[str, CSRMatrix], *,
                         base_config: SpArchConfig | None = None,
                         runner=None) -> list[BreakdownStep]:
    """Replay the Figure 16 feature walk over ``matrices`` (each squared).

    Args:
        matrices: named left operands; each is multiplied by itself, as in
            the paper's evaluation.
        base_config: configuration whose non-ablation parameters (merger
            width, buffer sizes, ...) are used for every step.
        runner: :class:`~repro.experiments.runner.ExperimentRunner` that
            runs and memoises every point, the OuterSPACE baseline
            included; defaults to a fresh one.

    Returns:
        One :class:`BreakdownStep` for the OuterSPACE baseline followed by
        one per cumulative technique, in Figure 16 order.
    """
    if not matrices:
        raise ValueError("cumulative_breakdown() requires at least one matrix")
    base_config = base_config or SpArchConfig()
    if runner is None:
        # Imported here: the experiments package imports this module.
        from repro.experiments.runner import ExperimentRunner
        runner = ExperimentRunner()

    # Every step — the OuterSPACE baseline included — reduces to a list of
    # canonical CostReports; the bar heights are one derived-metric view.
    # All steps go to the runner as one batch, so the steps that differ
    # only in pricing fields share one dataflow per matrix.
    engines = [BaselineEngineAdapter(OuterSpaceAccelerator())] + [
        SpArchEngine(base_config.with_features(**features))
        for _, features in BREAKDOWN_STEPS]
    operands = list(matrices.values())
    width = len(operands)
    reports = runner.run_engine_many([(engine, matrix) for engine in engines
                                      for matrix in operands])

    baseline = _step_from_reports("OuterSPACE baseline", reports[:width],
                                  previous_gflops=None, baseline_gflops=None)
    steps = [baseline]
    for index, (name, _) in enumerate(BREAKDOWN_STEPS, start=1):
        steps.append(_step_from_reports(
            name, reports[index * width:(index + 1) * width],
            previous_gflops=steps[-1].gflops,
            baseline_gflops=baseline.gflops))
    return steps


def _step_from_reports(name: str, reports: list[CostReport], *,
                       previous_gflops: float | None,
                       baseline_gflops: float | None) -> BreakdownStep:
    """One Figure 16 bar from the step's cost reports."""
    gflops = geometric_mean([max(report.gflops, 1e-12) for report in reports])
    return BreakdownStep(
        name=name,
        gflops=gflops,
        dram_bytes=sum(report.dram_bytes for report in reports),
        speedup_vs_previous=(gflops / previous_gflops
                             if previous_gflops else 1.0),
        speedup_vs_outerspace=(gflops / baseline_gflops
                               if baseline_gflops else 1.0),
    )
