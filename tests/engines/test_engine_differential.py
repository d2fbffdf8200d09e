"""Differential harness: the registry path reproduces every native path.

The refactor's acceptance contract: dispatching any engine through the
registry / runner / pipeline stack must produce byte-identical functional
results and identical counters to driving the native simulator or baseline
by hand.  (The figure-harness side of the contract is locked by
``tests/experiments/test_golden_values.py``, which pins pre-refactor
numbers.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import GustavsonSpGEMM
from repro.core.accelerator import SpArch
from repro.core.config import SpArchConfig
from repro.engines.registry import create_engine, get_engine_entry, list_engines
from repro.experiments.runner import ExperimentRunner
from repro.matrices.synthetic import powerlaw_matrix
from repro.metrics.compare import assert_reports_equal
from repro.workloads.registry import run_workload


@pytest.fixture(scope="module")
def matrix():
    return powerlaw_matrix(90, 4.5, seed=31)


def _assert_same_matrix(left, right) -> None:
    np.testing.assert_array_equal(left.indptr, right.indptr)
    np.testing.assert_array_equal(left.indices, right.indices)
    np.testing.assert_array_equal(left.data, right.data)


@pytest.mark.parametrize("name", list_engines())
def test_registry_path_equals_native_path(name, matrix):
    """engine.run() == driving the native simulator/baseline by hand."""
    engine = create_engine(name)
    run = engine.run(matrix)
    if engine.kind == "simulation":
        native = SpArch(SpArchConfig()).multiply(matrix, matrix)
        _assert_same_matrix(run.matrix, native.matrix)
        assert run.report.to_stats() == native.stats
    else:
        native, counters = engine._multiply_vectorized(matrix, matrix)
        traffic = counters.traffic_bytes
        if traffic is None:
            traffic = engine._traffic_bytes(matrix, matrix, native, counters)
        runtime = engine.platform.runtime_seconds(
            flops=counters.multiplications + counters.additions,
            traffic_bytes=traffic, bookkeeping_ops=counters.bookkeeping_ops)
        _assert_same_matrix(run.matrix, native)
        assert run.report.runtime_seconds == runtime
        assert run.report.dram_bytes == traffic
        assert run.report.multiplications == counters.multiplications
        assert run.report.additions == counters.additions
        assert run.report.energy_joules == engine.platform.energy_joules(
            runtime)
        assert run.report.extras == counters.extras
        assert run.report.output_nnz == native.nnz


@pytest.mark.parametrize("name", list_engines())
def test_runner_memoised_report_equals_direct_run(name, matrix):
    """runner.run_engine == engine.run, fresh and replayed from cache."""
    engine = create_engine(name)
    direct = engine.run(matrix).report
    runner = ExperimentRunner()
    fresh = runner.run_engine(name, matrix)
    replayed = runner.run_engine(name, matrix)
    assert (runner.cache_hits, runner.cache_misses) == (1, 1)
    assert_reports_equal(fresh, direct)
    assert fresh == replayed


def test_runner_views_are_lossless_over_the_report(matrix):
    """simulate rebuilds native stats from the report memo, and a memoised
    baseline report carries the native run's numbers."""
    runner = ExperimentRunner()
    stats = runner.simulate(matrix)
    assert stats == SpArch(SpArchConfig()).multiply(matrix, matrix).stats

    baseline = GustavsonSpGEMM()
    report = runner.run_engine(baseline, matrix)
    native = baseline.run(matrix).report
    assert report.runtime_seconds == native.runtime_seconds
    assert report.extras == native.extras


def test_simulate_and_run_engine_share_one_memo_pool(matrix):
    """The legacy and unified entry points hit the same cache entries."""
    runner = ExperimentRunner()
    runner.simulate(matrix)
    runner.run_engine("sparch", matrix)
    assert (runner.cache_hits, runner.cache_misses) == (1, 1)

    runner.run_engine(GustavsonSpGEMM(), matrix)
    runner.run_engine("mkl", matrix)
    assert (runner.cache_hits, runner.cache_misses) == (2, 2)


def test_pipeline_dispatch_by_name_equals_dispatch_by_instance(matrix):
    """engine="mkl" == engine=GustavsonSpGEMM()."""
    by_name = run_workload("triangles", matrix, engine="mkl")
    by_instance = run_workload("triangles", matrix, engine=GustavsonSpGEMM())
    assert by_name == by_instance  # WorkloadResult equality covers stages
    assert by_name.backend == "MKL"


def test_every_engine_runs_a_workload_through_the_registry(matrix):
    """The acceptance sweep: every registered engine drives a pipeline."""
    totals = {}
    for name in list_engines():
        result = run_workload("triangles", matrix, engine=name)
        assert result.backend == get_engine_entry(name).factory().display_name
        totals[name] = result.summary()["triangles"]
    # Functional invariant: identical triangle counts on every backend.
    assert len(set(totals.values())) == 1, totals
