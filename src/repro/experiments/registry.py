"""Registry mapping experiment ids to their harness modules."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.experiments import (
    condensing_stats,
    dram_access,
    fig08_huffman,
    fig11_speedup,
    fig12_energy,
    fig13_breakdown,
    fig14_rmat,
    fig15_roofline,
    fig16_breakdown,
    fig17_dse,
    fig18_merge_tree,
    scheduler_ablation,
    table2_comparison,
    table3_energy,
    workloads_e2e,
)
from repro.experiments.common import ExperimentResult


@dataclass(frozen=True)
class ExperimentEntry:
    """One registered experiment.

    Attributes:
        experiment_id: short id used on the command line ("fig11", "table2").
        title: the paper artefact the experiment regenerates.
        run: the harness entry point (keyword arguments forwarded verbatim).
    """

    experiment_id: str
    title: str
    run: Callable[..., ExperimentResult]


#: Every experiment, in the order the paper presents its evaluation.
EXPERIMENTS: tuple[ExperimentEntry, ...] = (
    ExperimentEntry("fig08", "Huffman tree scheduler example (Figure 8)",
                    fig08_huffman.run),
    ExperimentEntry("table2", "Area/power/bandwidth vs OuterSPACE (Table II)",
                    table2_comparison.run),
    ExperimentEntry("table3", "Energy and area breakdown (Table III)",
                    table3_energy.run),
    ExperimentEntry("fig11", "Speedup over five baselines (Figure 11)",
                    fig11_speedup.run),
    ExperimentEntry("fig12", "Energy saving over five baselines (Figure 12)",
                    fig12_energy.run),
    ExperimentEntry("fig13", "Area and power breakdown (Figure 13)",
                    fig13_breakdown.run),
    ExperimentEntry("fig14", "rMAT sweep vs MKL (Figure 14)", fig14_rmat.run),
    ExperimentEntry("fig15", "Roofline model (Figure 15)", fig15_roofline.run),
    ExperimentEntry("fig16", "Performance breakdown (Figures 2 and 16)",
                    fig16_breakdown.run),
    ExperimentEntry("fig17", "Buffer / comparator DSE (Figure 17)",
                    fig17_dse.run),
    ExperimentEntry("fig18", "Merge tree depth DSE (Figure 18)",
                    fig18_merge_tree.run),
    ExperimentEntry("dram", "DRAM access reduction headline (abstract)",
                    dram_access.run),
    ExperimentEntry("condense", "Matrix condensing / prefetcher ablation (§II-B, §II-D)",
                    condensing_stats.run),
    ExperimentEntry("scheduler", "Huffman vs sequential scheduler ablation (§II-C)",
                    scheduler_ablation.run),
    ExperimentEntry("workloads", "End-to-end workload pipelines vs baselines "
                    "(repro.workloads registry)",
                    workloads_e2e.run),
)

_BY_ID = {entry.experiment_id: entry for entry in EXPERIMENTS}


def list_experiments() -> list[str]:
    """Return the registered experiment ids in evaluation order."""
    return [entry.experiment_id for entry in EXPERIMENTS]


def get_experiment(experiment_id: str) -> ExperimentEntry:
    """Look up one experiment by id; raises ``KeyError`` with suggestions."""
    try:
        return _BY_ID[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known ids: "
            f"{', '.join(list_experiments())}"
        ) from None
