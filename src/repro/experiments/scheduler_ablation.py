"""Ablation: Huffman tree scheduler versus the sequential scheduler.

Figure 8 demonstrates the scheduler on a 12-leaf example; this harness
quantifies it on the benchmark suite.  For every matrix it builds both
schedules over the actual condensed-column weights and compares

* the scheduled total node weight (the Figure 8 metric, ∝ DRAM traffic of
  partially merged results), and
* the simulated partial-matrix DRAM traffic and throughput of the full
  accelerator under each scheduler,

for a merge tree deliberately smaller than the condensed-column count (so
that scheduling actually matters — with the full 64-way tree most proxies
merge in one round and both schedulers coincide).
"""

from __future__ import annotations

import numpy as np

from repro.core.condensing import partial_matrix_sizes
from repro.core.config import SpArchConfig
from repro.core.huffman import huffman_schedule, sequential_schedule
from repro.experiments.common import ExperimentResult, load_scaled_suite
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.formats.condensed import CondensedMatrix
from repro.formats.csr import CSRMatrix
from repro.utils.maths import geometric_mean
from repro.utils.reporting import Table

PAPER_METRICS = {
    # Figure 2 credits the Huffman scheduler with 1.8x less DRAM access of
    # partially merged results (1.5x speedup) at the paper's scale.
    "geomean_partial_traffic_reduction": 1.8,
}


def run(*, max_rows: int = 2000, names: list[str] | None = None,
        matrices: dict[str, CSRMatrix] | None = None,
        merge_tree_layers: int = 3,
        config: SpArchConfig | None = None,
        runner: ExperimentRunner | None = None) -> ExperimentResult:
    """Compare Huffman and sequential scheduling on the benchmark suite.

    Args:
        max_rows: proxy dimension cap.
        names: benchmark subset (default: all 20).
        matrices: explicit matrices instead of the generated suite.
        merge_tree_layers: merge tree depth used for the comparison; the
            default 3 (8-way) keeps the scheduling problem non-trivial on
            the scaled proxies.
        config: base configuration.
    """
    base_config = (config or SpArchConfig()).replace(
        merge_tree_layers=merge_tree_layers)
    if matrices is not None:
        workload = {name: (matrix, base_config) for name, matrix in matrices.items()}
    else:
        workload = load_scaled_suite(max_rows=max_rows, names=names,
                                     base_config=base_config)
        workload = {name: (matrix, cfg.replace(merge_tree_layers=merge_tree_layers))
                    for name, (matrix, cfg) in workload.items()}

    table = Table(
        title=f"Huffman vs sequential scheduling ({2 ** merge_tree_layers}-way merger)",
        columns=["matrix", "leaves", "huffman weight", "sequential weight",
                 "weight ratio", "partial-traffic reduction", "speedup"],
    )
    # Each matrix under both schedulers, all in one batch.
    stats = (runner or default_runner()).simulate_many(
        [(matrix, point_config)
         for matrix, matrix_config in workload.values()
         for point_config in (
             matrix_config,
             matrix_config.with_features(huffman_scheduler=False))])
    weight_ratios, traffic_reductions, speedups = [], [], []
    for index, (name, (matrix, matrix_config)) in enumerate(workload.items()):
        condensed = CondensedMatrix(matrix)
        weights = [float(w) for w in partial_matrix_sizes(condensed, matrix)]
        ways = matrix_config.merge_ways
        huffman_plan = huffman_schedule(weights, ways)
        sequential_plan = sequential_schedule(weights, ways)
        weight_ratio = (sequential_plan.total_weight
                        / max(huffman_plan.total_weight, 1e-9))

        huffman_stats, sequential_stats = stats[2 * index:2 * index + 2]
        traffic_reduction = (
            max(1, sequential_stats.traffic.partial_matrix_bytes)
            / max(1, huffman_stats.traffic.partial_matrix_bytes))
        speedup = sequential_stats.cycles / max(1, huffman_stats.cycles)

        weight_ratios.append(max(weight_ratio, 1e-9))
        traffic_reductions.append(max(traffic_reduction, 1e-9))
        speedups.append(max(speedup, 1e-9))
        table.add_row(name, len(weights), huffman_plan.total_weight,
                      sequential_plan.total_weight, weight_ratio,
                      traffic_reduction, speedup)

    metrics = {
        "geomean_weight_ratio": geometric_mean(weight_ratios),
        "geomean_partial_traffic_reduction": geometric_mean(traffic_reductions),
        "geomean_speedup": geometric_mean(speedups),
        "fraction_matrices_huffman_no_worse": float(np.mean(
            [ratio >= 0.999 for ratio in traffic_reductions])),
    }
    table.add_row("Geo Mean", "-", "-", "-", metrics["geomean_weight_ratio"],
                  metrics["geomean_partial_traffic_reduction"],
                  metrics["geomean_speedup"])
    return ExperimentResult(
        experiment_id="scheduler",
        title="Huffman tree scheduler ablation (§II-C)",
        table=table,
        metrics=metrics,
        paper_values=dict(PAPER_METRICS),
        notes=[f"evaluated with a {2 ** merge_tree_layers}-way merge tree so "
               "that the scaled proxies need multiple merge rounds"],
    )

