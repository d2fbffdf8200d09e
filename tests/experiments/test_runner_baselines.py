"""Baseline memoisation and engine keying in the ExperimentRunner."""

from __future__ import annotations

import pytest

from repro.baselines import (
    ArmadilloSpGEMM,
    BaselineSummary,
    GustavsonSpGEMM,
    HashSpGEMM,
)
from repro.engines.adapters import BaselineEngineAdapter
from repro.experiments.runner import ExperimentRunner, engine_point_key
from repro.matrices.synthetic import powerlaw_matrix, random_matrix


@pytest.fixture()
def matrix():
    return powerlaw_matrix(80, 4.0, seed=11)


def _key(baseline, matrix, *, include_backend=False):
    """The runner's cache key of one baseline ``A · A`` point."""
    return engine_point_key(BaselineEngineAdapter(baseline), matrix, matrix,
                            include_backend=include_backend)


def test_run_baseline_memoises(matrix):
    runner = ExperimentRunner()
    first = runner.run_baseline(GustavsonSpGEMM(), matrix)
    assert (runner.cache_hits, runner.cache_misses) == (0, 1)
    second = runner.run_baseline(GustavsonSpGEMM(), matrix)
    assert (runner.cache_hits, runner.cache_misses) == (1, 1)
    assert first == second
    assert isinstance(first, BaselineSummary)
    assert first.baseline == "MKL"
    assert first.runtime_seconds > 0
    assert first.flops == first.multiplications + first.additions


def test_summary_roundtrips_through_disk_cache(matrix, tmp_path):
    writer = ExperimentRunner(cache_dir=tmp_path)
    summary = writer.run_baseline(HashSpGEMM(), matrix)
    assert list((tmp_path / "baseline").glob("*.json"))

    reader = ExperimentRunner(cache_dir=tmp_path)
    replayed = reader.run_baseline(HashSpGEMM(), matrix)
    assert (reader.cache_hits, reader.cache_misses) == (1, 0)
    assert replayed == summary
    assert replayed.extras == summary.extras


def test_cache_shared_across_engines_unless_forced(matrix):
    # No forced engine: scalar- and vectorized-constructed baselines share
    # one cache entry (their counters are proven identical).
    runner = ExperimentRunner()
    runner.run_baseline(GustavsonSpGEMM(engine="vectorized"), matrix)
    runner.run_baseline(GustavsonSpGEMM(engine="scalar"), matrix)
    assert (runner.cache_hits, runner.cache_misses) == (1, 1)

    # Forced engines re-key per backend, so the cross-check really runs.
    scalar_runner = ExperimentRunner(engine="scalar")
    vector_runner = ExperimentRunner(engine="vectorized")
    scalar_summary = scalar_runner.run_baseline(GustavsonSpGEMM(), matrix)
    vector_summary = vector_runner.run_baseline(GustavsonSpGEMM(), matrix)
    assert scalar_summary.engine == "scalar"
    assert vector_summary.engine == "vectorized"
    key_scalar = _key(GustavsonSpGEMM(engine="scalar"), matrix,
                      include_backend=True)
    key_vector = _key(GustavsonSpGEMM(engine="vectorized"), matrix,
                      include_backend=True)
    assert key_scalar != key_vector
    # Same model, same matrix: everything but the backend label agrees.
    assert scalar_summary.runtime_seconds == vector_summary.runtime_seconds
    assert scalar_summary.extras == vector_summary.extras


def test_forced_engine_overrides_baseline_construction(matrix):
    runner = ExperimentRunner(engine="scalar")
    summary = runner.run_baseline(GustavsonSpGEMM(engine="vectorized"), matrix)
    assert summary.engine == "scalar"


def test_fingerprint_covers_model_parameters(matrix):
    default = _key(GustavsonSpGEMM(), matrix)
    thrashing = _key(GustavsonSpGEMM(cache_bytes=64.0), matrix)
    assert default != thrashing
    other_algorithm = _key(ArmadilloSpGEMM(), matrix)
    assert default != other_algorithm
    # Engine excluded by default, included when asked.
    assert _key(GustavsonSpGEMM(engine="scalar"), matrix) == default
    assert (_key(GustavsonSpGEMM(engine="scalar"), matrix,
                 include_backend=True)
            != _key(GustavsonSpGEMM(engine="vectorized"), matrix,
                    include_backend=True))


def test_run_baseline_many_preserves_order_and_dedupes():
    matrices = [random_matrix(30, 30, 60, seed=s) for s in (1, 2)]
    tasks = [(GustavsonSpGEMM(), matrices[0]),
             (ArmadilloSpGEMM(), matrices[0]),
             (GustavsonSpGEMM(), matrices[1]),
             (GustavsonSpGEMM(), matrices[0])]  # duplicate of task 0
    runner = ExperimentRunner()
    summaries = runner.run_baseline_many(tasks)
    assert [s.baseline for s in summaries] == ["MKL", "Armadillo", "MKL", "MKL"]
    assert summaries[0] == summaries[3]
    # Three distinct points computed; the duplicate replayed from cache.
    assert runner.cache_misses == 3
    assert runner.cache_hits == 1


def test_plain_spgemm_baseline_runs_through_runner(matrix):
    """A custom baseline built on the abstract base (no engine split) must
    work through run_baseline, including under a forced engine."""
    from repro.baselines import SpGEMMBaseline
    from repro.baselines.reference import scipy_spgemm

    class TrivialBaseline(SpGEMMBaseline):
        name = "Trivial"

        def multiply(self, matrix_a, matrix_b):
            from repro.baselines.base import BaselineResult

            result = scipy_spgemm(matrix_a, matrix_b)
            return BaselineResult(
                matrix=result, runtime_seconds=1.0, traffic_bytes=1,
                multiplications=1, additions=0, bookkeeping_ops=0,
                energy_joules=1.0, platform="trivial")

    for runner in (ExperimentRunner(), ExperimentRunner(engine="scalar")):
        summary = runner.run_baseline(TrivialBaseline(), matrix)
        assert summary.baseline == "Trivial"
        assert summary.engine == "scalar"
        assert summary.result_nnz > 0


def test_rectangular_baseline_point():
    from repro.matrices.synthetic import bipartite_matrix

    a = bipartite_matrix(20, 30, 3.0, seed=5)
    b = bipartite_matrix(30, 10, 2.0, seed=6)
    runner = ExperimentRunner()
    summary = runner.run_baseline(GustavsonSpGEMM(), a, matrix_b=b)
    direct = GustavsonSpGEMM().multiply(a, b)
    assert summary.runtime_seconds == direct.runtime_seconds
    assert summary.result_nnz == direct.nnz
