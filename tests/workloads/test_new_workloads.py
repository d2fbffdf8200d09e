"""Scipy goldens for the five spec-only workload families.

Each test recomputes the workload's documented semantics directly with
scipy/numpy — independent reference code, not a call back into the host-op
registry — and checks the compiled pipeline reproduces it exactly, under
both the scalar and the vectorized simulation engine (whose stage records
must be bit-identical, so the canonical payloads agree byte for byte).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.config import SpArchConfig
from repro.engines.sparch import SpArchEngine
from repro.formats.convert import to_scipy
from repro.matrices import powerlaw_matrix, random_matrix
from repro.workloads import run_workload
from repro.workloads.compiler import payload_bytes

ENGINES = ["scalar", "vectorized"]


def _sparch(engine: str) -> SpArchEngine:
    return SpArchEngine(SpArchConfig(engine=engine))


def _simple_graph(dense: np.ndarray) -> np.ndarray:
    adjacency = dense + dense.T
    np.fill_diagonal(adjacency, 0.0)
    return (adjacency != 0).astype(float)


def _column_normalize(dense: np.ndarray) -> np.ndarray:
    sums = dense.sum(axis=0)
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    return dense * scale


@pytest.mark.parametrize("engine", ENGINES)
def test_pagerank_matches_the_power_iteration(engine):
    matrix = powerlaw_matrix(30, 3.0, seed=11)
    alpha, tol = 0.85, 1e-10
    result = run_workload("pagerank", matrix, engine=_sparch(engine),
                          alpha=alpha, tolerance=tol, max_iterations=60)

    stochastic = _column_normalize(_simple_graph(matrix.to_dense()))
    n = matrix.shape[0]
    seed = np.full((n, 1), 1.0 / n)
    rank, iterations, converged = seed, 0, False
    for _ in range(60):
        updated = alpha * (stochastic @ rank) + (1.0 - alpha) * seed
        iterations += 1
        delta = np.max(np.abs(updated - rank))
        rank = updated
        if delta < tol:
            converged = True
            break

    np.testing.assert_allclose(result.output.to_dense(), rank)
    assert result.annotations["iterations"] == iterations
    assert result.annotations["converged"] == float(converged)
    np.testing.assert_allclose(result.annotations["rank_sum"],
                               rank.sum())
    assert result.output.shape == (n, 1)


def _sample_rows(dense: np.ndarray, fanout: int) -> np.ndarray:
    sampled = np.zeros_like(dense)
    for row in range(dense.shape[0]):
        columns = np.flatnonzero(dense[row])
        ranked = sorted(columns,
                        key=lambda col: (-abs(dense[row, col]), col))
        for col in ranked[:fanout]:
            sampled[row, col] = dense[row, col]
    return sampled


@pytest.mark.parametrize("engine", ENGINES)
def test_gnn_sampling_caps_fanout_then_propagates(engine):
    matrix = powerlaw_matrix(28, 4.0, seed=5)
    fanout, layers = 2, 3
    result = run_workload("gnn_sample", matrix, engine=_sparch(engine),
                          fanout=fanout, layers=layers)

    dense = matrix.to_dense()
    sampled = _sample_rows(_simple_graph(dense), fanout)
    norms = np.sqrt((dense ** 2).sum(axis=1, keepdims=True))
    features = np.divide(dense, norms, out=np.zeros_like(dense),
                         where=norms > 0)
    embedded = features
    for _ in range(layers):
        embedded = sampled @ embedded

    np.testing.assert_allclose(result.output.to_dense(), embedded)
    assert result.annotations["sampled_edges"] == np.count_nonzero(sampled)
    assert np.count_nonzero(sampled.sum(axis=1) > fanout) == 0
    assert len([s for s in result.stages if s.is_spgemm]) == layers


@pytest.mark.parametrize("engine", ENGINES)
def test_amg_vcycle_coarsens_until_the_operator_is_small(engine):
    matrix = random_matrix(40, 40, 240, seed=9)
    group_size, max_levels, coarse_rows = 3, 4, 6
    result = run_workload("amg_vcycle", matrix, engine=_sparch(engine),
                          group_size=group_size, max_levels=max_levels,
                          coarse_rows=coarse_rows)

    operator = matrix.to_dense()
    levels, reached = 0, False
    for _ in range(max_levels):
        rows = operator.shape[0]
        groups = (rows + group_size - 1) // group_size
        prolongator = np.zeros((rows, groups))
        prolongator[np.arange(rows), np.arange(rows) // group_size] = 1.0
        operator = prolongator.T @ (operator @ prolongator)
        levels += 1
        if operator.shape[0] < coarse_rows:
            reached = True
            break

    np.testing.assert_allclose(result.output.to_dense(), operator)
    assert result.annotations["levels"] == levels
    assert result.annotations["reached_coarse"] == float(reached)
    assert result.annotations["coarse_rows"] == operator.shape[0]
    assert result.annotations["coarse_nnz"] == np.count_nonzero(operator)


@pytest.mark.parametrize("engine", ENGINES)
def test_masked_triangle_enumeration_lists_each_triangle_once(engine):
    matrix = powerlaw_matrix(26, 4.0, seed=13)
    result = run_workload("tri_enum", matrix, engine=_sparch(engine))

    lower = np.tril(_simple_graph(matrix.to_dense()), k=-1)
    tri = (lower @ lower) * lower

    np.testing.assert_allclose(result.output.to_dense(), tri)
    assert result.annotations["triangles"] == tri.sum()
    assert result.annotations["edges"] == np.count_nonzero(lower)
    # Cross-check against the (A·A) ⊙ A triangle count, which counts each
    # triangle six times over the full adjacency.
    full = _simple_graph(matrix.to_dense())
    assert 6 * tri.sum() == ((full @ full) * full).sum()


@pytest.mark.parametrize("engine", ENGINES)
def test_serve_mix_runs_one_product_per_diagonal_block(engine):
    matrix = random_matrix(30, 30, 200, seed=17)
    batch = 3
    result = run_workload("serve_mix", matrix, engine=_sparch(engine),
                          batch=batch)

    dense = matrix.to_dense()
    n = dense.shape[0]
    products = []
    for index in range(batch):
        start, end = index * n // batch, (index + 1) * n // batch
        block = dense[start:end, start:end]
        products.append(block @ block)
    stacked = sp.block_diag(products).toarray()

    np.testing.assert_allclose(result.output.to_dense(), stacked)
    assert result.annotations["batches"] == batch
    assert result.annotations["stacked_nnz"] == result.output.nnz
    assert len([s for s in result.stages if s.is_spgemm]) == batch


@pytest.mark.parametrize("workload_id", ["pagerank", "gnn_sample",
                                         "amg_vcycle", "tri_enum",
                                         "serve_mix"])
def test_engine_variants_agree_byte_for_byte(workload_id):
    matrix = random_matrix(24, 24, 120, seed=29)
    params = {"pagerank": {"max_iterations": 5},
              "amg_vcycle": {"max_levels": 2}}.get(workload_id, {})
    payloads = {
        engine: payload_bytes(run_workload(workload_id, matrix,
                                           engine=_sparch(engine), **params))
        for engine in ENGINES
    }
    assert payloads["scalar"] == payloads["vectorized"]


@pytest.mark.parametrize("workload_id", ["pagerank", "tri_enum"])
def test_new_workloads_run_on_baseline_backends(workload_id):
    matrix = random_matrix(24, 24, 120, seed=31)
    params = {"max_iterations": 4} if workload_id == "pagerank" else {}
    result = run_workload(workload_id, matrix, engine="cusparse", **params)
    assert result.output is not None


def test_sampled_output_nnz_is_visible_to_scipy():
    # sanity: the compiled sampled matrix equals scipy's idea of the op
    matrix = powerlaw_matrix(24, 5.0, seed=7)
    result = run_workload("gnn_sample", matrix, fanout=2, layers=1)
    sampled = _sample_rows(_simple_graph(matrix.to_dense()), 2)
    stage = next(s for s in result.stages if s.name == "sampled")
    assert stage.output_nnz == np.count_nonzero(sampled)
    assert to_scipy(result.output).nnz == result.output.nnz
