"""Tests for triangle counting on the simulated accelerator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import count_triangles
from repro.apps.triangles import normalize_adjacency
from repro.formats import CSRMatrix
from repro.matrices import powerlaw_matrix


def _dense_triangle_count(adjacency: np.ndarray) -> int:
    return int(round(np.trace(adjacency @ adjacency @ adjacency) / 6))


def _triangle_graph() -> CSRMatrix:
    dense = np.zeros((5, 5))
    # One triangle 0-1-2 plus a pendant path 2-3-4.
    for i, j in ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4)):
        dense[i, j] = dense[j, i] = 1.0
    return CSRMatrix.from_dense(dense)


def test_known_small_graph():
    result = count_triangles(_triangle_graph())
    assert result.triangles == 1
    np.testing.assert_allclose(result.per_node_triangles, [1, 1, 1, 0, 0])
    assert result.wedges > 0
    assert 0.0 < result.clustering_coefficient <= 1.0


def test_complete_graph_has_n_choose_3_triangles():
    n = 7
    dense = np.ones((n, n)) - np.eye(n)
    result = count_triangles(CSRMatrix.from_dense(dense))
    assert result.triangles == n * (n - 1) * (n - 2) // 6
    assert result.clustering_coefficient == pytest.approx(1.0)


def test_triangle_free_graph():
    # A star graph has wedges but no triangles.
    dense = np.zeros((6, 6))
    dense[0, 1:] = dense[1:, 0] = 1.0
    result = count_triangles(CSRMatrix.from_dense(dense))
    assert result.triangles == 0
    assert result.clustering_coefficient == 0.0


def test_random_graph_matches_dense_reference():
    graph = powerlaw_matrix(200, 5.0, seed=3)
    adjacency = normalize_adjacency(graph)
    result = count_triangles(adjacency, assume_normalized=True)
    assert result.triangles == _dense_triangle_count(adjacency.to_dense())


def test_directed_weighted_input_is_normalised():
    dense = np.array([
        [0.0, 2.5, 0.0],
        [0.0, 0.0, -1.0],
        [4.0, 0.0, 3.0],   # self loop must be ignored
    ])
    result = count_triangles(CSRMatrix.from_dense(dense))
    assert result.triangles == 1


def test_spgemm_statistics_are_reported():
    graph = powerlaw_matrix(100, 4.0, seed=9)
    result = count_triangles(graph)
    assert result.spgemm_stats.multiplications > 0
    assert result.spgemm_stats.dram_bytes > 0


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square"):
        count_triangles(CSRMatrix.empty((3, 4)))


def test_count_is_exact_on_a_large_dense_cluster_graph():
    # Many overlapping cliques: the per-node sums are large, so a float
    # accumulation path (round(sum/3)) would be exposed to drift; the
    # integer path must match the dense reference exactly.
    rng = np.random.default_rng(42)
    dense = np.zeros((150, 150))
    for _ in range(30):
        members = rng.choice(150, size=8, replace=False)
        dense[np.ix_(members, members)] = 1.0
    np.fill_diagonal(dense, 0.0)
    graph = CSRMatrix.from_dense(dense)
    result = count_triangles(graph, assume_normalized=True)
    assert result.triangles == _dense_triangle_count(dense)
    # Per-node counts are integral halves (each triangle is seen twice).
    np.testing.assert_array_equal(result.per_node_triangles,
                                  np.rint(result.per_node_triangles))


def test_runner_mode_memoises_the_spgemm():
    from repro.experiments.runner import ExperimentRunner

    graph = powerlaw_matrix(100, 4.0, seed=9)
    runner = ExperimentRunner()
    first = count_triangles(graph, runner=runner)
    second = count_triangles(graph, runner=runner)
    assert (runner.cache_hits, runner.cache_misses) == (1, 1)
    assert first.triangles == second.triangles
    assert first.spgemm_stats == second.spgemm_stats


def test_workload_record_is_attached():
    result = count_triangles(_triangle_graph())
    assert result.workload is not None
    assert result.workload.workload_id == "triangles"
    assert [s.kind for s in result.workload.stages] == [
        "simple_graph", "spgemm", "mask"]


def test_engine_by_name_or_instance():
    from repro.core.config import SpArchConfig
    from repro.engines.sparch import SpArchEngine

    graph = powerlaw_matrix(100, 4.0, seed=9)
    reference = count_triangles(graph)
    scalar = count_triangles(
        graph, engine=SpArchEngine(SpArchConfig(engine="scalar")))
    assert scalar.triangles == reference.triangles
    assert scalar.spgemm_stats == reference.spgemm_stats
    on_mkl = count_triangles(graph, engine="mkl")
    assert on_mkl.triangles == reference.triangles
    assert on_mkl.workload.backend == "MKL"
    assert on_mkl.spgemm_stats is None
