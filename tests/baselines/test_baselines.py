"""Correctness and model tests for every baseline SpGEMM implementation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    ArmadilloSpGEMM,
    ESCSpGEMM,
    GustavsonSpGEMM,
    HashSpGEMM,
    HeapSpGEMM,
    InnerProductSpGEMM,
    OuterSpaceAccelerator,
)
from repro.baselines.reference import matrices_allclose, scipy_spgemm
from repro.formats.csr import CSRMatrix
from repro.matrices.synthetic import bipartite_matrix, powerlaw_matrix, random_matrix

ALL_BASELINES = [
    OuterSpaceAccelerator,
    GustavsonSpGEMM,
    HashSpGEMM,
    ESCSpGEMM,
    HeapSpGEMM,
    ArmadilloSpGEMM,
    InnerProductSpGEMM,
]


@pytest.fixture(scope="module")
def square_matrix() -> CSRMatrix:
    return powerlaw_matrix(150, 5.0, seed=17)


@pytest.fixture(scope="module")
def rectangular_pair() -> tuple[CSRMatrix, CSRMatrix]:
    return (bipartite_matrix(40, 60, 4.0, seed=1),
            bipartite_matrix(60, 30, 3.0, seed=2))


@pytest.mark.parametrize("baseline_cls", ALL_BASELINES)
class TestFunctionalCorrectness:
    def test_square_product_matches_scipy(self, baseline_cls, square_matrix):
        result = baseline_cls().run(square_matrix, square_matrix)
        assert matrices_allclose(result.matrix,
                                 scipy_spgemm(square_matrix, square_matrix))

    def test_rectangular_product_matches_scipy(self, baseline_cls,
                                               rectangular_pair):
        a, b = rectangular_pair
        result = baseline_cls().run(a, b)
        assert result.matrix.shape == (40, 30)
        assert matrices_allclose(result.matrix, scipy_spgemm(a, b))

    def test_empty_operand(self, baseline_cls):
        empty = CSRMatrix.empty((8, 8))
        dense = random_matrix(8, 8, 20, seed=1)
        result = baseline_cls().run(empty, dense)
        assert result.matrix.nnz == 0
        assert result.report.runtime_seconds >= 0

    def test_dimension_mismatch_rejected(self, baseline_cls):
        a = random_matrix(5, 6, 10, seed=1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            baseline_cls().run(a, a)


@pytest.mark.parametrize("baseline_cls", ALL_BASELINES)
class TestPerformanceModel:
    def test_result_counters_are_consistent(self, baseline_cls, square_matrix):
        result = baseline_cls().run(square_matrix, square_matrix)
        report = result.report
        b_row_nnz = square_matrix.nnz_per_row()
        expected_multiplications = int(b_row_nnz[square_matrix.indices].sum())
        assert report.multiplications == expected_multiplications
        assert report.additions >= 0
        assert report.flops == report.multiplications + report.additions
        assert report.dram_bytes > 0
        assert report.runtime_seconds > 0
        assert report.energy_joules > 0
        assert report.gflops > 0
        assert report.output_nnz == result.matrix.nnz
        assert report.detail["platform"]

    def test_repr_is_informative(self, baseline_cls):
        assert repr(baseline_cls()).endswith("()")


class TestRelativeOrdering:
    """The cross-platform ordering of Figure 11 holds on a typical matrix."""

    @pytest.fixture(scope="class")
    def runtimes(self, square_matrix=None):
        matrix = powerlaw_matrix(200, 5.0, seed=23)
        return {cls.display_name:
                cls().run(matrix, matrix).report.runtime_seconds
                for cls in ALL_BASELINES}

    def test_outerspace_is_fastest_baseline(self, runtimes):
        others = [v for k, v in runtimes.items() if k != "OuterSPACE"]
        assert runtimes["OuterSPACE"] < min(others)

    def test_armadillo_is_slowest(self, runtimes):
        others = [v for k, v in runtimes.items() if k != "Armadillo"]
        assert runtimes["Armadillo"] > max(others)

    def test_gpu_and_cpu_libraries_within_an_order_of_magnitude(self, runtimes):
        ratio = runtimes["MKL"] / runtimes["cuSPARSE"]
        assert 0.1 < ratio < 10.0


class TestAlgorithmSpecificCounters:
    def test_hash_spgemm_counts_probes_and_collisions(self, square_matrix):
        report = HashSpGEMM().run(square_matrix, square_matrix).report
        assert report.extras["hash_probes"] >= report.multiplications
        assert report.extras["hash_collisions"] >= 0

    def test_esc_expansion_size_equals_multiplications(self, square_matrix):
        report = ESCSpGEMM().run(square_matrix, square_matrix).report
        assert report.extras["expanded_products"] == report.multiplications
        assert report.extras["sort_passes"] >= 1

    def test_heap_operations_exceed_products(self, square_matrix):
        report = HeapSpGEMM().run(square_matrix, square_matrix).report
        assert report.extras["heap_operations"] >= report.multiplications

    def test_inner_product_redundant_fetches(self, square_matrix):
        report = InnerProductSpGEMM().run(square_matrix, square_matrix).report
        # The vanilla inner product re-fetches inputs many times over.
        assert report.extras["redundant_fetch_ratio"] > 10.0

    def test_outerspace_partial_matrix_traffic_dominates(self, square_matrix):
        report = OuterSpaceAccelerator().run(square_matrix,
                                             square_matrix).report
        assert report.extras["partial_matrix_bytes"] == pytest.approx(
            2 * report.multiplications * 16)
        assert report.extras["partial_matrix_bytes"] > report.extras["input_bytes"]

    def test_gustavson_cache_model_bounds(self):
        from repro.baselines.gustavson import estimate_b_read_bytes

        a = random_matrix(64, 64, 256, seed=3)
        b = random_matrix(64, 64, 256, seed=4)
        unique_bytes = estimate_b_read_bytes(a, b, cache_bytes=1e12)
        thrash_bytes = estimate_b_read_bytes(a, b, cache_bytes=1.0)
        touch_bytes = int(b.nnz_per_row()[a.indices].sum()) * 16
        assert unique_bytes <= thrash_bytes <= touch_bytes
