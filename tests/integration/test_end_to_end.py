"""Cross-module integration tests: the paper's claims hold end to end."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.energy import EnergyModel
from repro.baselines import GustavsonSpGEMM, OuterSpaceAccelerator
from repro.baselines.reference import matrices_allclose, scipy_spgemm
from repro.core.accelerator import SpArch
from repro.core.config import SpArchConfig
from repro.matrices.rmat import RMATConfig, generate_rmat
from repro.matrices.suite import load_benchmark
from repro.utils.maths import geometric_mean


@pytest.fixture(scope="module")
def benchmark_matrices():
    names = ["wiki-Vote", "facebook", "poisson3Da", "p2p-Gnutella31"]
    return {name: load_benchmark(name, max_rows=500) for name in names}


@pytest.fixture(scope="module")
def constrained_config():
    """A buffer-constrained configuration matching the proxies' scale."""
    return SpArchConfig().replace(prefetch_buffer_lines=32,
                                  lookahead_fifo_elements=256)


class TestHeadlineClaims:
    def test_all_paths_agree_on_the_functional_result(self, benchmark_matrices,
                                                      constrained_config):
        for matrix in benchmark_matrices.values():
            reference = scipy_spgemm(matrix, matrix)
            sparch = SpArch(constrained_config).multiply(matrix, matrix)
            outerspace = OuterSpaceAccelerator().run(matrix, matrix)
            mkl = GustavsonSpGEMM().run(matrix, matrix)
            assert matrices_allclose(sparch.matrix, reference)
            assert matrices_allclose(outerspace.matrix, reference)
            assert matrices_allclose(mkl.matrix, reference)

    def test_sparch_moves_less_dram_than_outerspace(self, benchmark_matrices,
                                                    constrained_config):
        """The abstract's headline: a multi-x DRAM-access reduction."""
        reductions = []
        for matrix in benchmark_matrices.values():
            sparch = SpArch(constrained_config).multiply(matrix, matrix)
            outerspace = OuterSpaceAccelerator().run(matrix, matrix).report
            reductions.append(outerspace.dram_bytes
                              / max(1, sparch.stats.dram_bytes))
        assert geometric_mean(reductions) > 1.5

    def test_sparch_is_faster_and_more_efficient_than_outerspace(
            self, benchmark_matrices, constrained_config):
        energy_model = EnergyModel()
        speedups, savings = [], []
        for matrix in benchmark_matrices.values():
            sparch = SpArch(constrained_config).multiply(matrix, matrix)
            outerspace = OuterSpaceAccelerator().run(matrix, matrix).report
            speedups.append(outerspace.runtime_seconds
                            / sparch.stats.runtime_seconds)
            savings.append(outerspace.energy_joules
                           / energy_model.total_energy(sparch.stats,
                                                       constrained_config))
        assert geometric_mean(speedups) > 2.0
        assert geometric_mean(savings) > 2.0

    def test_bandwidth_utilization_beats_outerspace(self, benchmark_matrices,
                                                    constrained_config):
        utilizations = [
            SpArch(constrained_config).multiply(matrix, matrix)
            .stats.bandwidth_utilization
            for matrix in benchmark_matrices.values()
        ]
        assert float(np.mean(utilizations)) > 0.483


class TestScalingBehaviour:
    def test_performance_is_stable_across_density(self):
        """Figure 14's qualitative claim: SpArch tolerates sparser matrices."""
        config = SpArchConfig().replace(prefetch_buffer_lines=64,
                                        lookahead_fifo_elements=512)
        gflops = []
        for rows, degree in ((512, 16), (1024, 8), (2048, 4)):
            matrix = generate_rmat(RMATConfig(num_rows=rows, edge_factor=degree,
                                              seed=3))
            result = SpArch(config).multiply(matrix, matrix)
            gflops.append(result.stats.gflops)
        assert max(gflops) / min(gflops) < 4.0

    def test_condensing_gain_grows_with_matrix_size(self):
        """More columns → more partial matrices → condensing matters more."""
        ratios = []
        for rows in (200, 800):
            matrix = generate_rmat(RMATConfig(num_rows=rows, edge_factor=4,
                                              seed=9))
            condensed = SpArch().multiply(matrix, matrix).stats
            uncondensed = SpArch(SpArchConfig().with_features(
                matrix_condensing=False)).multiply(matrix, matrix).stats
            ratios.append(uncondensed.num_partial_matrices
                          / max(1, condensed.num_partial_matrices))
        assert ratios[1] > ratios[0]

    def test_merge_tree_depth_trades_area_for_traffic(self):
        from repro.analysis.area import AreaModel

        matrix = generate_rmat(RMATConfig(num_rows=600, edge_factor=6, seed=5))
        area_model = AreaModel()
        shallow_config = SpArchConfig().replace(merge_tree_layers=3)
        deep_config = SpArchConfig().replace(merge_tree_layers=6)
        shallow = SpArch(shallow_config).multiply(matrix, matrix).stats
        deep = SpArch(deep_config).multiply(matrix, matrix).stats
        assert deep.traffic.partial_matrix_bytes <= (
            shallow.traffic.partial_matrix_bytes)
        assert area_model.total_area(deep_config) > area_model.total_area(
            shallow_config)
