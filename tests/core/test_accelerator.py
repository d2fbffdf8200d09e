"""End-to-end tests of the SpArch accelerator model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.reference import matrices_allclose, scipy_spgemm
from repro.core.accelerator import SpArch, multiply
from repro.core.config import SpArchConfig
from repro.formats.csr import CSRMatrix
from repro.matrices.synthetic import (
    banded_matrix,
    bipartite_matrix,
    diagonal_matrix,
    powerlaw_matrix,
    random_matrix,
)
from repro.memory.hbm import HBMConfig, HBMModel
from repro.memory.traffic import TrafficCategory

#: Every combination of the four ablation switches exercised by Figure 16.
ABLATIONS = [
    dict(),
    dict(matrix_condensing=False),
    dict(huffman_scheduler=False),
    dict(row_prefetcher=False),
    dict(matrix_condensing=False, huffman_scheduler=False, row_prefetcher=False),
    dict(pipelined_merge=False, matrix_condensing=False,
         huffman_scheduler=False, row_prefetcher=False),
]


class TestFunctionalCorrectness:
    def test_small_known_product(self, small_csr_pair):
        a, b = small_csr_pair
        result = multiply(a, b)
        expected = a.to_dense() @ b.to_dense()
        np.testing.assert_allclose(result.matrix.to_dense(), expected)

    def test_family_matrices_squared(self, family_matrix):
        result = multiply(family_matrix, family_matrix)
        assert matrices_allclose(result.matrix,
                                 scipy_spgemm(family_matrix, family_matrix))

    def test_rectangular_product(self):
        a = bipartite_matrix(30, 50, 4.0, seed=1)
        b = bipartite_matrix(50, 20, 3.0, seed=2)
        result = multiply(a, b)
        assert result.matrix.shape == (30, 20)
        assert matrices_allclose(result.matrix, scipy_spgemm(a, b))

    @pytest.mark.parametrize("features", ABLATIONS)
    def test_every_ablation_is_functionally_exact(self, features):
        matrix = powerlaw_matrix(120, 5.0, seed=21)
        config = SpArchConfig().with_features(**features)
        result = SpArch(config).multiply(matrix, matrix)
        assert matrices_allclose(result.matrix, scipy_spgemm(matrix, matrix))

    def test_small_merge_tree_forces_many_rounds(self):
        matrix = powerlaw_matrix(150, 6.0, seed=3)
        config = SpArchConfig().replace(merge_tree_layers=2)  # 4-way merger
        result = SpArch(config).multiply(matrix, matrix)
        assert result.stats.num_merge_rounds > 1
        assert matrices_allclose(result.matrix, scipy_spgemm(matrix, matrix))

    def test_identity_product(self):
        identity = diagonal_matrix(32)
        matrix = random_matrix(32, 32, 128, seed=5)
        result = multiply(identity, matrix)
        assert matrices_allclose(result.matrix, matrix)

    def test_empty_operands(self):
        empty = CSRMatrix.empty((10, 10))
        matrix = random_matrix(10, 10, 30, seed=1)
        assert multiply(empty, matrix).matrix.nnz == 0
        assert multiply(matrix, empty).matrix.nnz == 0
        assert multiply(empty, empty).stats.dram_bytes == 0

    def test_dimension_mismatch_rejected(self):
        a = random_matrix(10, 11, 20, seed=1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            multiply(a, a)

    def test_cancellation_is_eliminated_from_output(self):
        # A crafted product where entries cancel exactly: the zero eliminator
        # must drop them from the final CSR result.
        a = CSRMatrix.from_dense(np.array([[1.0, 1.0]]))
        b = CSRMatrix.from_dense(np.array([[3.0], [-3.0]]))
        result = multiply(a, b)
        assert result.matrix.nnz == 0
        assert result.stats.multiplications == 2


class TestStatistics:
    @pytest.fixture
    def result(self):
        matrix = powerlaw_matrix(200, 6.0, seed=8)
        return SpArch().multiply(matrix, matrix), matrix

    def test_multiplication_and_addition_counts(self, result):
        spgemm, matrix = result
        stats = spgemm.stats
        b_row_nnz = matrix.nnz_per_row()
        expected_multiplications = int(b_row_nnz[matrix.indices].sum())
        assert stats.multiplications == expected_multiplications
        # Every duplicate fold is one addition; output nnz + additions can
        # only exceed the product count when exact cancellations occur.
        assert stats.additions >= expected_multiplications - stats.output_nnz
        assert stats.output_nnz == spgemm.matrix.nnz

    def test_traffic_composition(self, result):
        spgemm, matrix = result
        traffic = spgemm.stats.traffic
        a_bytes = traffic.bytes_by_category[TrafficCategory.MATRIX_A_READ]
        assert a_bytes == matrix.nnz * 16
        assert traffic.bytes_by_category[TrafficCategory.RESULT_WRITE] == (
            spgemm.matrix.nnz * 16)
        assert traffic.total_bytes == traffic.read_bytes + traffic.write_bytes
        assert spgemm.stats.dram_bytes == traffic.total_bytes

    def test_condensing_statistics(self, result):
        spgemm, matrix = result
        stats = spgemm.stats
        assert stats.condensed_columns == matrix.max_row_length()
        assert stats.num_partial_matrices == stats.condensed_columns
        assert stats.scheduler == "huffman"

    def test_cycle_model_consistency(self, result):
        spgemm, _ = result
        stats = spgemm.stats
        assert stats.cycles >= max(stats.compute_cycles, stats.memory_cycles)
        assert stats.runtime_seconds == pytest.approx(stats.cycles / 1e9)
        assert 0.0 < stats.bandwidth_utilization <= 1.0
        assert stats.gflops > 0
        assert stats.operational_intensity > 0

    def test_prefetch_hit_rate_bounds(self, result):
        spgemm, _ = result
        assert 0.0 <= spgemm.stats.prefetch_hit_rate <= 1.0
        assert spgemm.stats.prefetch_bytes_saved >= 0


class TestTechniqueEffects:
    """The directional claims of Figure 2/16 hold on a sparse power-law matrix."""

    @pytest.fixture(scope="class")
    def matrix(self):
        return powerlaw_matrix(400, 5.0, seed=13)

    def _traffic(self, matrix, **features) -> int:
        config = SpArchConfig().replace(
            prefetch_buffer_lines=32, lookahead_fifo_elements=256,
        ).with_features(**features)
        return SpArch(config).multiply(matrix, matrix).stats.dram_bytes

    def test_condensing_reduces_partial_matrices(self, matrix):
        full = SpArch().multiply(matrix, matrix).stats
        uncondensed = SpArch(SpArchConfig().with_features(
            matrix_condensing=False)).multiply(matrix, matrix).stats
        assert full.num_partial_matrices < uncondensed.num_partial_matrices

    def test_prefetcher_reduces_traffic(self, matrix):
        with_prefetcher = self._traffic(matrix)
        without_prefetcher = self._traffic(matrix, row_prefetcher=False)
        assert with_prefetcher < without_prefetcher

    def test_huffman_never_worse_than_sequential(self, matrix):
        config = SpArchConfig().replace(merge_tree_layers=3,
                                        prefetch_buffer_lines=32)
        huffman = SpArch(config).multiply(matrix, matrix).stats
        sequential = SpArch(config.with_features(
            huffman_scheduler=False)).multiply(matrix, matrix).stats
        assert huffman.traffic.partial_matrix_bytes <= (
            sequential.traffic.partial_matrix_bytes)

    def test_two_phase_dataflow_spills_every_product(self, matrix):
        config = SpArchConfig().with_features(
            pipelined_merge=False, matrix_condensing=False,
            huffman_scheduler=False, row_prefetcher=False)
        stats = SpArch(config).multiply(matrix, matrix).stats
        # Every multiplied element is written to DRAM and read back at least
        # once — the OuterSPACE behaviour SpArch eliminates.
        assert stats.traffic.partial_matrix_bytes >= 2 * stats.multiplications * 16

    def test_pipelined_merge_avoids_leaf_spills(self, matrix):
        pipelined = SpArch(SpArchConfig()).multiply(matrix, matrix).stats
        assert pipelined.traffic.partial_matrix_bytes < (
            2 * pipelined.multiplications * 16)


def test_multiply_convenience_function_uses_config():
    matrix = random_matrix(64, 64, 256, seed=2)
    config = SpArchConfig().with_features(row_prefetcher=False)
    result = multiply(matrix, matrix, config)
    assert result.stats.prefetch_hit_rate in (0.0, pytest.approx(
        result.stats.prefetch_hit_rate))
    assert SpArch(config).config is config
    assert repr(result).startswith("SpGEMMResult")


@pytest.mark.parametrize("engine", ["scalar", "vectorized"])
def test_dram_time_is_priced_at_aggregate_bandwidth(engine):
    """Memory cycles are the run's DRAM bytes at the aggregate HBM
    bandwidth (§II-D), however that bandwidth is split into channels."""
    matrix = powerlaw_matrix(200, 8, seed=3)
    table1 = SpArchConfig(engine=engine)
    stats = SpArch(table1).multiply(matrix, matrix).stats
    assert stats.memory_cycles == HBMModel(table1.hbm).memory_cycles(
        stats.traffic.read_bytes, stats.traffic.write_bytes)
    assert stats.memory_cycles > 0

    regrouped = SpArchConfig(engine=engine, hbm=HBMConfig(
        num_channels=8, bytes_per_second_per_channel=16e9))
    other = SpArch(regrouped).multiply(matrix, matrix).stats
    assert other.dram_bytes == stats.dram_bytes
    assert other.memory_cycles == stats.memory_cycles
    assert other.cycles == stats.cycles
