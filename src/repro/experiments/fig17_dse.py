"""Figure 17 — design space exploration of buffers and comparator arrays.

The paper sweeps four parameters around the Table I design point:

* (a) prefetch buffer *line size* (1024 lines × 24…96 elements) — longer
  lines reduce DRAM access with diminishing returns; 48 is chosen.
* (b) prefetch buffer *shape* at fixed capacity (2048×24 … 256×192) — more,
  shorter lines reduce DRAM access; 1024×48 is chosen.
* (c) comparator array size (1×1 … 16×16) — performance scales linearly
  while compute-bound, then saturates when memory-bound; 16×16 is chosen.
* (d) look-ahead FIFO size (1024 … 16384) — larger FIFOs improve the
  replacement decisions until the round-startup cost dominates; 8192 is
  chosen.
"""

from __future__ import annotations

from repro.core.config import SpArchConfig
from repro.corpus.registry import DSE_BENCHMARKS
from repro.experiments.common import ExperimentResult
from repro.experiments.designspace import (
    fig17_grid,
    summarise_grid,
    sweep_grid,
)
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.formats.csr import CSRMatrix
from repro.matrices.suite import load_suite
from repro.utils.reporting import Table

#: Display row of each grid family, in the paper's presentation order
#: (metric keys use the family name itself).
_FAMILY_ROWS = {
    "line": "(a) line size",
    "shape": "(b) buffer shape",
    "comparator": "(c) comparator array",
    "lookahead": "(d) look-ahead FIFO",
}

PAPER_METRICS = {
    "chosen_line_elements": 48,
    "chosen_buffer_lines": 1024,
    "chosen_comparator_size": 16,
    "chosen_lookahead": 8192,
}


def _sweep(matrices: dict[str, CSRMatrix], configs: dict[str, SpArchConfig],
           runner: ExperimentRunner) -> dict[str, tuple[float, float]]:
    """Run every config over the matrices; return geomean GFLOPS and bytes.

    A thin view over :func:`repro.experiments.designspace.sweep_grid`:
    results come back keyed per ``(config, matrix)`` cell instead of being
    sliced out of one flat list by index arithmetic.
    """
    return summarise_grid(sweep_grid(configs, matrices, runner=runner))


def run(*, max_rows: int = 800, names: list[str] | None = None,
        matrices: dict[str, CSRMatrix] | None = None,
        base_config: SpArchConfig | None = None,
        buffer_scale: int = 16,
        runner: ExperimentRunner | None = None) -> ExperimentResult:
    """Reproduce the four Figure 17 sweeps.

    Args:
        max_rows: proxy dimension cap.
        names: benchmark subset (a prefetcher-sensitive subset by default).
        matrices: explicit matrices to sweep instead of the generated suite.
        base_config: configuration the sweeps perturb (Table I by default).
        buffer_scale: the prefetch buffer and look-ahead FIFO sweeps are
            divided by this factor so the scaled-down proxies exercise the
            same capacity-pressure regime as the paper's full-size matrices
            (a 1024-line buffer would trivially hold every scaled proxy).
    """
    base_config = base_config or SpArchConfig()
    runner = runner or default_runner()
    if matrices is None:
        if names is None:
            # The same benchmark subset the registered fig17-dse corpus
            # sweep runs — one definition of the grid's matrix axis.
            names = list(DSE_BENCHMARKS)
        matrices = load_suite(max_rows=max_rows, names=names)

    table = Table(
        title="Figure 17 — design space exploration",
        columns=["sweep", "point", "GFLOP/s", "DRAM bytes"],
    )
    metrics: dict[str, float] = {}

    # The shared Figure 17 grid (designspace.fig17_grid) — the same labelled
    # configs the registered `fig17-dse` corpus sweep executes.
    grid = fig17_grid(base_config, buffer_scale=buffer_scale)
    for family, configs in grid.items():
        for label, (gflops, dram) in _sweep(matrices, configs,
                                            runner).items():
            table.add_row(_FAMILY_ROWS[family], label, gflops, dram)
            # Metric keys keep their historical, family-specific point
            # naming: line size by elements-per-line, comparator by width.
            if family == "line":
                point = label.split("x")[1]
            elif family == "comparator":
                point = label.split("x")[0]
            else:
                point = label
            metrics[f"gflops[{family}:{point}]"] = gflops
            if family != "comparator":
                metrics[f"dram[{family}:{point}]"] = dram

    return ExperimentResult(
        experiment_id="fig17",
        title="Design space exploration (Figure 17)",
        table=table,
        metrics=metrics,
        paper_values=dict(PAPER_METRICS),
        notes=[f"buffer/FIFO capacities divided by {buffer_scale} to match the "
               f"scaled proxies' working sets (see EXPERIMENTS.md)"],
    )

