"""Figure 2 / Figure 16 — dissecting the performance gain.

Starting from the OuterSPACE baseline, the paper adds its four techniques
one at a time: pipelining multiply and merge alone is a 5.7× *slowdown*
(the ~140,000 un-condensed partial matrices thrash DRAM), matrix condensing
is an 8.8× speedup on top, the Huffman scheduler 1.5×, and the row
prefetcher 1.8×, for ≈ 4.2× over OuterSPACE overall.

The first two factors are strongly scale-dependent: they are driven by the
ratio of the partial-matrix count to the 64-way merge tree.  Synthetic
proxies capped at a few thousand rows cannot produce 140,000 partial
matrices, so this harness reports both

* the *measured* walk on the scaled proxies, and
* the *paper-scale analytical projection* from the §III-C traffic model
  (:mod:`repro.analysis.dram_traffic`) evaluated at the paper's average
  N = 140,000 columns and 100 condensed columns,

so the crossover shape can be checked at both scales.
"""

from __future__ import annotations

from repro.analysis.breakdown import cumulative_breakdown
from repro.analysis.dram_traffic import (
    condensed_traffic_elements,
    outerspace_traffic_elements,
    uncondensed_traffic_elements,
)
from repro.core.config import SpArchConfig
from repro.experiments.common import ExperimentResult, default_suite
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.formats.csr import CSRMatrix
from repro.utils.reporting import Table

#: Step-over-step factors reported in Figure 2 / Figure 16.
PAPER_METRICS = {
    "speedup_vs_prev[Pipelined Multiply and Merge]": 1 / 5.7,
    "speedup_vs_prev[+ Matrix Condensing]": 8.8,
    "speedup_vs_prev[+ Huffman Tree Scheduler]": 1.5,
    "speedup_vs_prev[+ Row Prefetcher]": 1.8,
    "overall_speedup_vs_outerspace": 4.2,
}

#: Average matrix statistics the paper's §III-C analysis assumes.
PAPER_AVG_COLUMNS = 140_000
PAPER_AVG_CONDENSED_COLUMNS = 100


def run(*, max_rows: int = 4000, names: list[str] | None = None,
        matrices: dict[str, CSRMatrix] | None = None,
        config: SpArchConfig | None = None,
        runner: ExperimentRunner | None = None) -> ExperimentResult:
    """Reproduce the Figure 16 breakdown (measured + paper-scale projection)."""
    config = config or SpArchConfig()
    if matrices is None:
        if names is None:
            # A representative subset keeps the un-condensed configurations
            # tractable; the full suite is available by passing names.
            names = ["wiki-Vote", "facebook", "poisson3Da", "ca-CondMat",
                     "email-Enron", "p2p-Gnutella31"]
        matrices = default_suite(max_rows=max_rows, names=names)

    runner = runner or default_runner()
    steps = cumulative_breakdown(matrices, base_config=config, runner=runner)

    table = Table(
        title="Figure 16 — performance breakdown (measured on scaled proxies)",
        columns=["configuration", "GFLOP/s", "DRAM bytes",
                 "speedup vs prev", "speedup vs OuterSPACE"],
    )
    metrics: dict[str, float] = {}
    for step in steps:
        table.add_row(step.name, step.gflops, step.dram_bytes,
                      step.speedup_vs_previous, step.speedup_vs_outerspace)
        if step.name != "OuterSPACE baseline":
            metrics[f"speedup_vs_prev[{step.name}]"] = step.speedup_vs_previous
    metrics["overall_speedup_vs_outerspace"] = steps[-1].speedup_vs_outerspace

    # Paper-scale analytical projection of the first two steps (the ones the
    # scaled proxies cannot reach): DRAM element counts in units of M.
    multiplications = 1.0
    ways = config.merge_ways
    outerspace_traffic = outerspace_traffic_elements(multiplications)
    uncondensed = uncondensed_traffic_elements(multiplications, PAPER_AVG_COLUMNS,
                                               ways)
    condensed = condensed_traffic_elements(multiplications,
                                           PAPER_AVG_CONDENSED_COLUMNS, ways)
    projection = Table(
        title="§III-C analytical projection at paper scale (traffic in units of M)",
        columns=["configuration", "traffic / M", "vs OuterSPACE"],
    )
    projection.add_row("OuterSPACE", outerspace_traffic, 1.0)
    projection.add_row("Pipelined only (N=140k)", uncondensed,
                       outerspace_traffic / uncondensed)
    projection.add_row("+ Matrix condensing (N=100)", condensed,
                       outerspace_traffic / condensed)
    metrics["projected_slowdown[pipelined_only]"] = uncondensed / outerspace_traffic
    metrics["projected_speedup[condensing]"] = uncondensed / condensed

    result = ExperimentResult(
        experiment_id="fig16",
        title="Dissecting the performance gain (Figure 2 / Figure 16)",
        table=table,
        metrics=metrics,
        paper_values=dict(PAPER_METRICS),
        notes=[
            f"proxies capped at {max_rows} rows; the pipelined-only slowdown "
            "only fully materialises at the paper's ~140k-column scale — see "
            "the analytical projection below",
            projection.render(),
        ],
    )
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
