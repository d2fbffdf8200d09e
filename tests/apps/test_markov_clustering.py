"""Tests for Markov clustering with accelerator-backed expansion."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.apps import markov_clustering
from repro.apps.markov_clustering import _extract_clusters
from repro.experiments.runner import ExperimentRunner
from repro.formats import CSRMatrix
from repro.matrices import random_matrix


def _two_cliques(size: int = 5, bridge: bool = True) -> CSRMatrix:
    """Two cliques of ``size`` nodes, optionally joined by one weak edge."""
    n = 2 * size
    dense = np.zeros((n, n))
    for offset in (0, size):
        block = slice(offset, offset + size)
        dense[block, block] = 1.0
    np.fill_diagonal(dense, 0.0)
    if bridge:
        dense[size - 1, size] = dense[size, size - 1] = 0.1
    return CSRMatrix.from_dense(dense)


def test_two_cliques_are_separated():
    result = markov_clustering(_two_cliques())
    assert result.num_clusters == 2
    assert result.converged
    # Every node of a clique shares a label; the two cliques differ.
    labels = result.labels
    assert len(set(labels[:5])) == 1
    assert len(set(labels[5:])) == 1
    assert labels[0] != labels[5]


def test_clusters_partition_the_nodes():
    graph = random_matrix(40, 40, 200, seed=5)
    result = markov_clustering(graph, max_iterations=15)
    covered = sorted(node for cluster in result.clusters for node in cluster)
    assert covered == list(range(40))
    assert len(result.labels) == 40
    assert result.num_clusters == len(result.clusters)


def test_higher_inflation_gives_no_fewer_clusters():
    graph = random_matrix(60, 60, 400, seed=11)
    coarse = markov_clustering(graph, inflation=1.4, max_iterations=20)
    fine = markov_clustering(graph, inflation=3.0, max_iterations=20)
    assert fine.num_clusters >= coarse.num_clusters


def test_spgemm_statistics_accumulate_per_iteration():
    result = markov_clustering(_two_cliques(), max_iterations=10)
    assert result.iterations >= 1
    assert len(result.total_spgemm_stats) >= result.iterations
    assert result.total_dram_bytes > 0
    assert result.total_cycles > 0


def test_isolated_nodes_form_singleton_clusters():
    dense = np.zeros((4, 4))
    dense[0, 1] = dense[1, 0] = 1.0
    result = markov_clustering(CSRMatrix.from_dense(dense))
    assert result.num_clusters == 3  # {0,1} plus two singletons
    sizes = sorted(len(c) for c in result.clusters)
    assert sizes == [1, 1, 2]


def test_overlap_chains_merge_transitively():
    """Regression: a∩b, b∩c overlap chains must yield disjoint clusters.

    Attractor 0 claims {0, 3}, attractor 1 claims {1, 4}, and attractor 2
    claims {2, 3, 4} — bridging the first two.  Merging only into the first
    overlapping cluster used to leave {1, 4} separate while 4 also sat in
    the merged cluster, violating the disjointness invariant.
    """
    dense = np.zeros((5, 5))
    dense[0, 0] = dense[1, 1] = dense[2, 2] = 0.4  # attractors
    dense[0, 3] = 0.3
    dense[1, 4] = 0.3
    dense[2, 3] = dense[2, 4] = 0.2
    clusters = _extract_clusters(sp.csr_matrix(dense))
    assert clusters == [[0, 1, 2, 3, 4]]


def test_extracted_clusters_are_always_disjoint_and_cover():
    rng = np.random.default_rng(77)
    for _ in range(20):
        dense = np.where(rng.random((12, 12)) < 0.2, rng.random((12, 12)), 0.0)
        clusters = _extract_clusters(sp.csr_matrix(dense))
        flat = [node for cluster in clusters for node in cluster]
        assert sorted(flat) == list(range(12))  # disjoint cover


def test_runner_mode_matches_engine_mode():
    graph = random_matrix(40, 40, 200, seed=5)
    direct = markov_clustering(graph, max_iterations=15)
    memoised = markov_clustering(graph, max_iterations=15,
                                 runner=ExperimentRunner())
    assert memoised.clusters == direct.clusters
    assert memoised.iterations == direct.iterations
    assert memoised.total_spgemm_stats == direct.total_spgemm_stats


def test_workload_record_is_attached():
    result = markov_clustering(_two_cliques(), max_iterations=5)
    assert result.workload is not None
    assert result.workload.workload_id == "mcl"
    assert result.workload.total_cycles == result.total_cycles
    assert len(result.workload.spgemm_stages) == len(result.total_spgemm_stats)


def test_invalid_arguments():
    graph = _two_cliques()
    with pytest.raises(ValueError, match="square"):
        markov_clustering(CSRMatrix.empty((3, 4)))
    with pytest.raises(ValueError, match="expansion"):
        markov_clustering(graph, expansion=1)
    with pytest.raises(ValueError, match="inflation"):
        markov_clustering(graph, inflation=1.0)


def test_engine_by_name_gives_the_same_clusters():
    graph = random_matrix(40, 40, 200, seed=5)
    on_sparch = markov_clustering(graph, max_iterations=15)
    on_mkl = markov_clustering(graph, max_iterations=15, engine="mkl")
    assert on_mkl.clusters == on_sparch.clusters
    assert on_mkl.workload.backend == "MKL"
    assert on_mkl.total_spgemm_stats == []
