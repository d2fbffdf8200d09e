"""Figure 8 — Huffman tree scheduler worked example.

The paper illustrates the scheduler on twelve partial matrices with weights
(15, 15, 13, 12, 9, 7, 3, 2, 2, 2, 2, 2):

* a 2-way *sequential* scheduler gives a total node weight of **365**;
* a 2-way *Huffman* scheduler reduces it to **354**;
* a 4-way Huffman scheduler reduces it to **228**.

The total node weight is proportional to the DRAM traffic of partially
merged results, so this experiment checks our scheduler reproduces the
paper's numbers exactly.
"""

from __future__ import annotations

from repro.core.huffman import huffman_schedule, sequential_schedule
from repro.experiments.common import ExperimentResult
from repro.utils.reporting import Table

#: The leaf weights of the Figure 8 example, in the paper's order.
FIGURE8_WEIGHTS = [15.0, 15.0, 13.0, 12.0, 9.0, 7.0, 3.0, 2.0, 2.0, 2.0, 2.0, 2.0]

#: Total node weights the paper reports for the three schedulers.
PAPER_TOTAL_WEIGHTS = {
    "2-way sequential": 365.0,
    "2-way huffman": 354.0,
    "4-way huffman": 228.0,
}


def run(weights: list[float] | None = None) -> ExperimentResult:
    """Reproduce the Figure 8 example (or run it on custom ``weights``)."""
    weights = list(weights) if weights is not None else list(FIGURE8_WEIGHTS)

    schedules = {
        "2-way sequential": sequential_schedule(weights, 2),
        "2-way huffman": huffman_schedule(weights, 2),
        "4-way huffman": huffman_schedule(weights, 4),
        "64-way huffman": huffman_schedule(weights, 64),
    }

    table = Table(
        title="Figure 8 — total node weight (∝ DRAM traffic of partial results)",
        columns=["scheduler", "rounds", "total weight", "internal weight",
                 "paper"],
    )
    metrics: dict[str, float] = {}
    paper_values: dict[str, float] = {}
    for name, plan in schedules.items():
        paper = PAPER_TOTAL_WEIGHTS.get(name)
        table.add_row(name, len(plan.rounds), plan.total_weight,
                      plan.internal_weight,
                      paper if paper is not None else "-")
        metrics[f"total_weight[{name}]"] = plan.total_weight
        if paper is not None:
            paper_values[f"total_weight[{name}]"] = paper

    return ExperimentResult(
        experiment_id="fig08",
        title="Huffman tree scheduler example (Figure 8)",
        table=table,
        metrics=metrics,
        paper_values=paper_values,
    )

