"""Figure 18 — design space exploration of the merge tree depth.

The paper sweeps the merge tree from 2 to 7 layers (4-way to 128-way).  A
deeper tree merges more partial matrices per round, cutting the DRAM traffic
of partially merged results, but beyond 6 layers (64-way) the improvement
vanishes because the condensed column count of the benchmark matrices is
already comparable to the tree's width.
"""

from __future__ import annotations

from repro.core.config import SpArchConfig
from repro.experiments.common import ExperimentResult
from repro.experiments.designspace import GEOMEAN_FLOOR
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.formats.csr import CSRMatrix
from repro.matrices.suite import load_suite
from repro.utils.maths import geometric_mean
from repro.utils.reporting import Table

#: Layer counts swept by Figure 18.
LAYER_SWEEP = (2, 3, 4, 5, 6, 7)

PAPER_METRICS = {
    "chosen_layers": 6,
    "gflops[layers:6]": 10.45,
    "gflops[layers:2]": 4.13,
}


def run(*, max_rows: int = 1500, names: list[str] | None = None,
        matrices: dict[str, CSRMatrix] | None = None,
        base_config: SpArchConfig | None = None,
        runner: ExperimentRunner | None = None) -> ExperimentResult:
    """Reproduce the Figure 18 merge-tree-depth sweep."""
    base_config = base_config or SpArchConfig()
    runner = runner or default_runner()
    if matrices is None:
        if names is None:
            names = ["wiki-Vote", "facebook", "email-Enron", "ca-CondMat",
                     "poisson3Da", "2cubes_sphere"]
        matrices = load_suite(max_rows=max_rows, names=names)

    table = Table(
        title="Figure 18 — merge tree depth sweep",
        columns=["layers", "ways", "GFLOP/s", "DRAM bytes"],
    )
    metrics: dict[str, float] = {}
    for layers in LAYER_SWEEP:
        config = base_config.replace(merge_tree_layers=layers)
        layer_stats = runner.simulate_many(
            [(matrix, config) for matrix in matrices.values()])
        gflops = [max(stats.gflops, GEOMEAN_FLOOR) for stats in layer_stats]
        total_bytes = sum(stats.dram_bytes for stats in layer_stats)
        mean_gflops = geometric_mean(gflops)
        table.add_row(layers, 2 ** layers, mean_gflops, total_bytes)
        metrics[f"gflops[layers:{layers}]"] = mean_gflops
        metrics[f"dram[layers:{layers}]"] = float(total_bytes)

    return ExperimentResult(
        experiment_id="fig18",
        title="Merge tree size exploration (Figure 18)",
        table=table,
        metrics=metrics,
        paper_values=dict(PAPER_METRICS),
    )

