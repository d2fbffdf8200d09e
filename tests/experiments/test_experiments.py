"""Smoke and sanity tests for every experiment harness.

Each experiment runs on a reduced workload (few matrices, small dimension)
and is checked for structural soundness plus the paper's qualitative
claims: who wins, and in roughly which regime the headline numbers fall.
"""

from __future__ import annotations

import dataclasses

import pytest

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
)
from repro.experiments.common import (
    ExperimentResult,
    load_paper_scale_suite,
    paper_scale_config,
    scale_buffer_capacities,
    scaled_config,
    small_suite,
)
from repro.baselines.base import BaselineEngine
from repro.baselines.gustavson import GustavsonSpGEMM
from repro.baselines.platforms import INTEL_CPU
from repro.core.config import SpArchConfig
from repro.engines.sparch import SpArchEngine
from repro.experiments.registry import get_experiment, list_experiments
from repro.experiments.runner import ExperimentRunner
from repro.matrices.synthetic import random_matrix

#: Reduced workload shared by the suite-based experiments.
NAMES = ["wiki-Vote", "facebook", "poisson3Da"]
MAX_ROWS = 400


def _record_engine_calls(monkeypatch) -> list[tuple[str, str]]:
    """Record every SpArch run or pricing and every baseline run."""
    calls = []
    for engine_class, method in ((SpArchEngine, "run"),
                                 (SpArchEngine, "price"),
                                 (BaselineEngine, "run")):
        def wrapper(self, *args, _original=getattr(engine_class, method),
                    _call=(engine_class.__name__, method), **kwargs):
            calls.append(_call)
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(engine_class, method, wrapper)
    return calls


def _check_result(result: ExperimentResult, experiment_id: str) -> None:
    assert result.experiment_id == experiment_id
    assert result.table.rows
    assert result.metrics
    rendered = result.render()
    assert result.title
    assert isinstance(rendered, str) and rendered


class TestRegistry:
    def test_all_experiments_registered(self):
        ids = list_experiments()
        assert ids == ["fig08", "table2", "table3", "fig11", "fig12", "fig13",
                       "fig14", "fig15", "fig16", "fig17", "fig18", "dram",
                       "condense", "scheduler", "workloads"]

    def test_lookup_and_error(self):
        entry = get_experiment("fig11")
        assert callable(entry.run)
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("fig99")


class TestFig08:
    def test_paper_totals_reproduced_exactly(self):
        result = fig08_huffman.run()
        _check_result(result, "fig08")
        assert result.metrics["total_weight[2-way sequential]"] == 365.0
        assert result.metrics["total_weight[2-way huffman]"] == 354.0
        assert result.metrics["total_weight[4-way huffman]"] == 228.0

    def test_custom_weights(self):
        result = fig08_huffman.run(weights=[4.0, 3.0, 2.0, 1.0])
        assert result.metrics["total_weight[2-way huffman]"] >= 10.0


class TestSpeedupAndEnergy:
    @pytest.fixture(scope="class")
    def fig11_result(self):
        return fig11_speedup.run(max_rows=MAX_ROWS, names=NAMES)

    def test_fig11_sparch_wins_everywhere(self, fig11_result):
        _check_result(fig11_result, "fig11")
        for key, value in fig11_result.metrics.items():
            assert value > 1.0, f"SpArch should beat {key}"

    def test_fig11_ordering_matches_paper(self, fig11_result):
        metrics = fig11_result.metrics
        assert metrics["geomean_speedup[OuterSPACE]"] < metrics[
            "geomean_speedup[MKL]"]
        assert metrics["geomean_speedup[Armadillo]"] > 100.0
        assert metrics["geomean_speedup[OuterSPACE]"] < 20.0

    def test_fig12_energy_savings_positive(self):
        result = fig12_energy.run(max_rows=MAX_ROWS, names=NAMES)
        _check_result(result, "fig12")
        assert all(value > 1.0 for value in result.metrics.values())
        assert result.metrics["geomean_energy_saving[OuterSPACE]"] < (
            result.metrics["geomean_energy_saving[cuSPARSE]"])

    @pytest.mark.parametrize("harness", ["fig11", "fig12", "workloads"])
    def test_baselines_sharing_a_display_name_are_refused(self, harness):
        """Two parameterisations of MKL would collapse into one column,
        geomean and report; every comparison harness refuses them."""
        quarter = dataclasses.replace(INTEL_CPU, **{
            field.name: getattr(INTEL_CPU, field.name) / 4
            for field in dataclasses.fields(INTEL_CPU)
            if isinstance(getattr(INTEL_CPU, field.name), float)})
        pair = [GustavsonSpGEMM(), GustavsonSpGEMM(platform=quarter)]
        kwargs = ({"names": ["wiki-Vote"], "workload_ids": ["triangles"]}
                  if harness == "workloads"
                  else {"matrices": {"m": random_matrix(40, 40, 160, seed=3)}})
        with pytest.raises(ValueError, match="shared: MKL"):
            get_experiment(harness).run(max_rows=60, baselines=pair,
                                        runner=ExperimentRunner(), **kwargs)


class TestHardwareComparisons:
    def test_table2(self):
        result = table2_comparison.run(max_rows=MAX_ROWS, names=NAMES)
        _check_result(result, "table2")
        assert result.metrics["area_mm2[SpArch]"] < result.metrics[
            "area_mm2[OuterSPACE]"]
        assert result.metrics["power_w[SpArch]"] < result.metrics[
            "power_w[OuterSPACE]"]
        assert 0.0 < result.metrics["bandwidth_utilization[SpArch]"] <= 1.0

    def test_table3(self):
        result = table3_energy.run(max_rows=MAX_ROWS, names=NAMES)
        _check_result(result, "table3")
        assert result.metrics["energy_per_flop[SpArch]"] < result.metrics[
            "energy_per_flop[OuterSPACE]"]
        assert result.metrics["energy_ratio"] > 2.0

    def test_fig13(self):
        result = fig13_breakdown.run(max_rows=MAX_ROWS, names=NAMES)
        _check_result(result, "fig13")
        power = {k: v for k, v in result.metrics.items() if "power_fraction" in k}
        assert max(power, key=power.get) == "power_fraction[Merge Tree]"
        area = {k: v for k, v in result.metrics.items() if "area_fraction" in k}
        assert max(area, key=area.get) == "area_fraction[Merge Tree]"

    def test_dram_access_reduction(self):
        result = dram_access.run(max_rows=MAX_ROWS, names=NAMES)
        _check_result(result, "dram")
        assert result.metrics["geomean_dram_reduction"] > 1.5


class TestSweeps:
    def test_fig14_rmat(self):
        result = fig14_rmat.run(scale=0.02)
        _check_result(result, "fig14")
        assert result.metrics["geomean_speedup_over_mkl"] > 5.0
        assert result.metrics["geomean_flops[SpArch]"] > result.metrics[
            "geomean_flops[MKL]"]

    def test_fig14_scales_buffers_by_the_shared_rule(self, monkeypatch):
        """An 8-line ablation base keeps its 8 lines: fig14 scales buffers
        with ``scale_buffer_capacities``, which never enlarges a base."""
        runner = ExperimentRunner()
        configs = []
        run_engine_many = runner.run_engine_many

        def spy(tasks, **kwargs):
            configs.extend(engine.config for engine, _ in tasks
                           if isinstance(engine, SpArchEngine))
            return run_engine_many(tasks, **kwargs)

        monkeypatch.setattr(runner, "run_engine_many", spy)
        base = SpArchConfig(prefetch_buffer_lines=8,
                            lookahead_fifo_elements=64)
        fig14_rmat.run(scale=0.01, config=base, runner=runner)
        assert len(configs) == len(fig14_rmat.PAPER_SWEEP)
        assert set(configs) == {scale_buffer_capacities(base, 0.01)}
        assert configs[0].prefetch_buffer_lines == 8
        assert configs[0].lookahead_fifo_elements == 64

    def test_fig15_roofline(self):
        result = fig15_roofline.run(max_rows=MAX_ROWS, names=NAMES)
        _check_result(result, "fig15")
        assert result.metrics["achieved_gflops[SpArch]"] > result.metrics[
            "achieved_gflops[OuterSPACE]"]
        assert result.metrics["achieved_gflops[SpArch]"] <= result.metrics[
            "roof_gflops"] * 1.01
        assert result.metrics["roof_gap[OuterSPACE]"] > result.metrics[
            "roof_gap[SpArch]"]

    def test_fig16_breakdown(self):
        result = fig16_breakdown.run(max_rows=800, names=NAMES)
        _check_result(result, "fig16")
        assert result.metrics["overall_speedup_vs_outerspace"] > 1.5
        # The paper-scale analytic projection reproduces the 5.7× regression.
        assert 4.5 < result.metrics["projected_slowdown[pipelined_only]"] < 6.5

    def test_fig16_runs_every_point_through_the_runner(self, monkeypatch):
        """All 30 points of the six default matrices, the OuterSPACE
        baseline included, are memoised, so a second run on the same
        runner calls no engine."""
        runner = ExperimentRunner()
        cold = fig16_breakdown.run(max_rows=300, runner=runner)
        assert (runner.cache_misses, runner.cache_hits) == (30, 0)

        calls = _record_engine_calls(monkeypatch)
        warm = fig16_breakdown.run(max_rows=300, runner=runner)
        assert calls == []
        assert (runner.cache_misses, runner.cache_hits) == (30, 30)
        assert warm.metrics == cold.metrics

    @pytest.mark.parametrize("harness", [dram_access, fig15_roofline],
                             ids=["dram", "fig15"])
    def test_outerspace_points_run_through_the_runner(self, harness,
                                                      monkeypatch):
        """A second run on the same runner replays every point, the
        OuterSPACE ones included, and multiplies nothing."""
        runner = ExperimentRunner()
        cold = harness.run(max_rows=300, names=NAMES, runner=runner)
        calls = _record_engine_calls(monkeypatch)
        warm = harness.run(max_rows=300, names=NAMES, runner=runner)
        assert calls == []
        assert runner.cache_hits == runner.cache_misses == 2 * len(NAMES)
        assert warm.metrics == cold.metrics

    def test_fig17_dse(self):
        result = fig17_dse.run(max_rows=MAX_ROWS,
                               names=["wiki-Vote", "facebook"])
        _check_result(result, "fig17")
        # Longer buffer lines never increase DRAM traffic.
        assert result.metrics["dram[line:96]"] <= result.metrics["dram[line:24]"]
        # Bigger comparator arrays never slow the design down.
        assert result.metrics["gflops[comparator:16]"] >= result.metrics[
            "gflops[comparator:1]"]

    def test_fig18_merge_tree(self):
        result = fig18_merge_tree.run(max_rows=MAX_ROWS, names=NAMES)
        _check_result(result, "fig18")
        assert result.metrics["gflops[layers:6]"] >= result.metrics[
            "gflops[layers:2]"]
        assert result.metrics["dram[layers:6]"] <= result.metrics[
            "dram[layers:2]"]

    def test_fig18_prints_its_paper_throughputs(self):
        rendered = fig18_merge_tree.run(names=["wiki-Vote"],
                                        max_rows=150).render()
        headline = dict(line.strip().split(": ", 1)
                        for line in rendered.splitlines()
                        if line.startswith("  gflops["))
        assert headline["gflops[layers:6]"].endswith("(paper: 10.45)")
        assert headline["gflops[layers:2]"].endswith("(paper: 4.13)")


class TestAblations:
    def test_condensing_stats(self):
        result = condensing_stats.run(max_rows=MAX_ROWS, names=NAMES)
        _check_result(result, "condense")
        # Condensing collapses many original columns into few condensed ones.
        assert result.metrics["geomean_proxy_condensation_ratio"] > 2.0
        assert result.metrics["geomean_condensation_ratio"] > (
            result.metrics["geomean_proxy_condensation_ratio"])
        assert 0.0 < result.metrics["geomean_hit_rate"] <= 1.0
        assert result.metrics["geomean_b_traffic_reduction"] >= 1.0

    def test_condensing_pairs_share_one_dataflow(self, monkeypatch):
        """With and without the prefetcher differ only in a pricing field,
        so each matrix runs one multiply and prices the other point."""
        calls = _record_engine_calls(monkeypatch)
        condensing_stats.run(max_rows=MAX_ROWS, names=NAMES,
                             runner=ExperimentRunner())
        assert sorted(calls) == ([("SpArchEngine", "price")] * len(NAMES)
                                 + [("SpArchEngine", "run")] * len(NAMES))

    def test_scheduler_ablation(self):
        result = scheduler_ablation.run(max_rows=MAX_ROWS, names=NAMES,
                                        merge_tree_layers=2)
        _check_result(result, "scheduler")
        # Huffman scheduling never plans more traffic than sequential.
        assert result.metrics["geomean_weight_ratio"] >= 1.0
        assert result.metrics["geomean_partial_traffic_reduction"] >= 0.95
        assert result.metrics["fraction_matrices_huffman_no_worse"] >= 0.5


class TestCommonHelpers:
    def test_small_suite(self):
        suite = small_suite(max_rows=200, count=3)
        assert len(suite) == 3
        assert all(matrix.shape[0] <= 200 for matrix in suite.values())

    def test_scaled_config_shrinks_buffers(self):
        config = scaled_config("cit-Patents", max_rows=400)
        assert config.prefetch_buffer_lines < 1024
        assert config.lookahead_fifo_elements < 8192
        # Matrices smaller than the cap keep the full-size buffers.
        full = scaled_config("facebook", max_rows=100_000)
        assert full.prefetch_buffer_lines == 1024

    def test_scale_rejects_growth_factors(self):
        # Scaling above 1 would grow the buffers past Table I — always a
        # caller bug (paper scale must use the unscaled configuration).
        with pytest.raises(ValueError, match="unscaled"):
            scale_buffer_capacities(SpArchConfig(), 1.5)
        with pytest.raises(ValueError):
            scale_buffer_capacities(SpArchConfig(), 0.0)
        with pytest.raises(ValueError):
            scale_buffer_capacities(SpArchConfig(), -0.25)

    def test_scale_never_enlarges_small_bases(self):
        # Regression: the floor used to silently *enlarge* capacities whose
        # base was already below it (8-line ablation buffers).
        tiny = SpArchConfig(prefetch_buffer_lines=8,
                            lookahead_fifo_elements=64)
        scaled = scale_buffer_capacities(tiny, 0.01)
        assert scaled.prefetch_buffer_lines == 8
        assert scaled.lookahead_fifo_elements == 64

    def test_scale_floors_at_one_entry(self):
        # Regression: extreme shrink factors must yield structurally valid
        # (>= 1 entry) capacities, never zero.
        one = SpArchConfig(prefetch_buffer_lines=1,
                           lookahead_fifo_elements=1)
        scaled = scale_buffer_capacities(one, 1e-6)
        assert scaled.prefetch_buffer_lines == 1
        assert scaled.lookahead_fifo_elements == 1

    def test_paper_scale_config_keeps_table1_buffers(self):
        config = paper_scale_config()
        assert config.engine == "vectorized"
        table1 = SpArchConfig()
        assert config.prefetch_buffer_lines == table1.prefetch_buffer_lines
        assert (config.lookahead_fifo_elements
                == table1.lookahead_fifo_elements)

    def test_load_paper_scale_suite_small_proxy(self):
        # Functional smoke at a tiny dimension; the real 10^5-row rung runs
        # in benchmarks/test_paper_scale.py.
        suite = load_paper_scale_suite(max_rows=300)
        assert set(suite) == {"patents_main", "m133-b3"}
        for matrix, config in suite.values():
            assert matrix.shape[0] <= 300
            assert config.engine == "vectorized"
            assert config.prefetch_buffer_lines == 1024
