"""Unit tests for the cumulative-technique breakdown (Figure 16)."""

from __future__ import annotations

import pytest

from repro.analysis.breakdown import BREAKDOWN_STEPS, cumulative_breakdown
from repro.core.config import SpArchConfig
from repro.experiments.runner import ExperimentRunner
from repro.matrices.synthetic import powerlaw_matrix


@pytest.fixture(scope="module")
def matrices():
    return {f"m{i}": powerlaw_matrix(250, 5.0, seed=50 + i) for i in range(3)}


@pytest.fixture(scope="module")
def steps(matrices):
    return cumulative_breakdown(matrices)


def test_every_point_runs_through_the_given_runner(matrices, steps):
    """The baseline and every step, each matrix once, go to the runner;
    the result equals the default fresh runner's."""
    runner = ExperimentRunner()
    assert cumulative_breakdown(matrices, runner=runner) == steps
    assert runner.cache_misses == len(steps) * len(matrices)


def test_walk_order_matches_figure16(steps):
    names = [step.name for step in steps]
    assert names[0] == "OuterSPACE baseline"
    assert names[1:] == [name for name, _ in BREAKDOWN_STEPS]


def test_baseline_step_is_normalised(steps):
    assert steps[0].speedup_vs_previous == 1.0
    assert steps[0].speedup_vs_outerspace == 1.0
    assert steps[0].gflops > 0


def test_chained_speedups_are_consistent(steps):
    for previous, current in zip(steps, steps[1:]):
        assert current.speedup_vs_previous == pytest.approx(
            current.gflops / previous.gflops)
        assert current.speedup_vs_outerspace == pytest.approx(
            current.gflops / steps[0].gflops)


def test_full_design_beats_outerspace(steps):
    assert steps[-1].speedup_vs_outerspace > 1.5
    assert steps[-1].dram_bytes < steps[0].dram_bytes


def test_prefetcher_step_reduces_dram_traffic(steps):
    without_prefetcher = steps[-2]
    with_prefetcher = steps[-1]
    assert with_prefetcher.dram_bytes < without_prefetcher.dram_bytes
    assert with_prefetcher.speedup_vs_previous >= 1.0


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        cumulative_breakdown({})


def test_custom_base_config_is_respected():
    matrices = {"m": powerlaw_matrix(150, 4.0, seed=99)}
    small = SpArchConfig().replace(merge_tree_layers=3, prefetch_buffer_lines=32)
    steps = cumulative_breakdown(matrices, base_config=small)
    assert len(steps) == 1 + len(BREAKDOWN_STEPS)
