"""Unit tests for the energy and area models (Table II/III, Figure 13)."""

from __future__ import annotations

import pytest

from repro.analysis.area import AreaModel, PAPER_AREA_MM2, SPARCH_TOTAL_AREA_MM2
from repro.analysis.energy import (
    ENERGY_PER_DRAM_BYTE,
    EnergyConstants,
    EnergyModel,
)
from repro.core.accelerator import SpArch
from repro.core.config import SpArchConfig
from repro.core.stats import SimulationStats
from repro.matrices.synthetic import powerlaw_matrix


@pytest.fixture(scope="module")
def simulated_stats():
    matrix = powerlaw_matrix(300, 5.0, seed=31)
    return SpArch().multiply(matrix, matrix).stats


class TestEnergyModel:
    def test_dram_constant_matches_jedec_figure(self):
        assert ENERGY_PER_DRAM_BYTE == pytest.approx(1.0 / 42.6e9)

    def test_breakdown_totals_and_fractions(self, simulated_stats):
        model = EnergyModel()
        breakdown = model.breakdown(simulated_stats)
        assert breakdown.total > 0
        assert breakdown.on_chip == pytest.approx(breakdown.total - breakdown.hbm)
        fractions = breakdown.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert set(fractions) == {"Column Fetcher", "Row Prefetcher",
                                  "Multiplier Array", "Merge Tree",
                                  "Partial Mat Writer", "HBM"}

    def test_merge_tree_dominates_power(self, simulated_stats):
        """Figure 13(b): the merge tree is the largest power consumer."""
        fractions = EnergyModel().breakdown(simulated_stats).fractions()
        assert fractions["Merge Tree"] == max(fractions.values())
        assert fractions["Merge Tree"] > 0.4
        assert fractions["Multiplier Array"] < 0.1

    def test_dram_energy_scales_with_bytes(self, simulated_stats):
        model = EnergyModel()
        breakdown = model.breakdown(simulated_stats)
        assert breakdown.hbm == pytest.approx(
            simulated_stats.dram_bytes * ENERGY_PER_DRAM_BYTE)

    def test_energy_per_flop_in_the_accelerator_regime(self, simulated_stats):
        """Table III: SpArch sits well below 1 nJ/FLOP."""
        per_flop = EnergyModel().energy_per_flop(simulated_stats)
        assert 0.05e-9 < per_flop < 2e-9

    def test_report_categories_sum_to_overall(self, simulated_stats):
        from repro.metrics.report import CostReport

        model = EnergyModel()
        categories = model.report_categories(
            CostReport.from_stats(simulated_stats, energy_model=model))
        assert set(categories) == {"Computation", "SRAM", "DRAM"}
        assert sum(categories.values()) == pytest.approx(
            model.total_energy(simulated_stats))

    def test_zero_stats_edge_cases(self):
        model = EnergyModel()
        empty = SimulationStats()
        assert model.total_energy(empty) == 0.0
        assert model.average_power(empty) == 0.0
        assert model.energy_per_flop(empty) == 0.0

    def test_report_categories_dispatch_on_report_kind(self, simulated_stats):
        """Simulation reports get the exact module grouping; baseline and
        aggregate reports get the per-event split over their counters —
        no energy is ever dropped from a mixed aggregate."""
        from repro.engines.registry import create_engine
        from repro.metrics.report import CostReport

        model = EnergyModel()
        matrix = powerlaw_matrix(120, 4.0, seed=33)
        sparch = create_engine("sparch").run(matrix).report
        mkl = create_engine("mkl").run(matrix).report

        sim_cats = model.report_categories(sparch)
        assert sum(sim_cats.values()) == pytest.approx(sparch.energy_joules)

        base_cats = model.report_categories(mkl)
        assert base_cats["SRAM"] == 0.0
        assert sum(base_cats.values()) == pytest.approx(
            sum(mkl.energy.values()))

        mixed = CostReport.aggregate([sparch, mkl])
        mixed_cats = model.report_categories(mixed)
        # Per-event over the summed counters: both engines' DRAM bytes
        # are charged, not just SpArch's HBM module.
        assert mixed_cats["DRAM"] == pytest.approx(
            mixed.dram_bytes * model.constants.dram_byte)
        events = model.event_energy(
            multiplications=mixed.multiplications, additions=mixed.additions,
            bookkeeping_ops=mixed.bookkeeping_ops,
            dram_bytes=mixed.dram_bytes)
        assert mixed_cats["Computation"] == pytest.approx(
            events["Computation"] + events["Bookkeeping"])

    def test_custom_constants_scale_linearly(self, simulated_stats):
        base = EnergyModel().breakdown(simulated_stats)
        doubled = EnergyModel(EnergyConstants(
            multiply=40e-12, add=24e-12, comparator_op=14e-12,
            merge_fifo_element=120e-12, prefetch_element=300e-12,
            fetcher_element=30e-12, writer_element=60e-12,
            dram_byte=ENERGY_PER_DRAM_BYTE)).breakdown(simulated_stats)
        assert doubled.merge_tree == pytest.approx(2 * base.merge_tree)
        assert doubled.hbm == pytest.approx(base.hbm)


class TestAreaModel:
    def test_default_configuration_reproduces_paper_total(self):
        area = AreaModel().breakdown()
        assert area.total == pytest.approx(SPARCH_TOTAL_AREA_MM2, rel=1e-3)
        for module, value in area.by_module().items():
            assert value == pytest.approx(PAPER_AREA_MM2[module], rel=1e-6)

    def test_merge_tree_dominates_area(self):
        fractions = AreaModel().breakdown().fractions()
        assert fractions["Merge Tree"] == max(fractions.values())
        assert fractions["Merge Tree"] == pytest.approx(0.606, abs=0.02)

    def test_area_scales_with_buffer_capacity(self):
        model = AreaModel()
        bigger = SpArchConfig().replace(prefetch_buffer_lines=2048)
        assert model.breakdown(bigger).row_prefetcher == pytest.approx(
            2 * PAPER_AREA_MM2["Row Prefetcher"])
        smaller = SpArchConfig().replace(lookahead_fifo_elements=4096)
        assert model.breakdown(smaller).column_fetcher == pytest.approx(
            0.5 * PAPER_AREA_MM2["Column Fetcher"])

    def test_area_scales_with_merge_tree_size(self):
        model = AreaModel()
        deeper = SpArchConfig().replace(merge_tree_layers=7)
        shallower = SpArchConfig().replace(merge_tree_layers=5)
        assert model.total_area(deeper) > model.total_area()
        assert model.total_area(shallower) < model.total_area()

    def test_fractions_sum_to_one(self):
        fractions = AreaModel().breakdown().fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
