"""Baseline memoisation and engine keying in the ExperimentRunner."""

from __future__ import annotations

import pytest

from repro.baselines import (
    ArmadilloSpGEMM,
    GustavsonSpGEMM,
    HashSpGEMM,
)
from repro.baselines.base import BaselineCounters, BaselineEngine
from repro.engines.registry import create_engine, get_engine_entry, list_engines
from repro.experiments.runner import ExperimentRunner, engine_point_key
from repro.matrices.synthetic import powerlaw_matrix, random_matrix

BASELINES = [name for name in list_engines()
             if get_engine_entry(name).factory.kind == "baseline"]


@pytest.fixture()
def matrix():
    return powerlaw_matrix(80, 4.0, seed=11)


def _key(baseline, matrix, *, include_backend=False):
    """The runner's cache key of one baseline ``A · A`` point."""
    return engine_point_key(baseline, matrix, matrix,
                            include_backend=include_backend)


def test_baseline_point_memoises(matrix):
    runner = ExperimentRunner()
    first = runner.run_engine(GustavsonSpGEMM(), matrix)
    assert (runner.cache_hits, runner.cache_misses) == (0, 1)
    second = runner.run_engine(GustavsonSpGEMM(), matrix)
    assert (runner.cache_hits, runner.cache_misses) == (1, 1)
    assert first == second
    assert first.kind == "baseline"
    assert first.detail["baseline"] == "MKL"
    assert first.runtime_seconds > 0
    assert first.flops == first.multiplications + first.additions


def test_report_roundtrips_through_disk_cache(matrix, tmp_path):
    writer = ExperimentRunner(cache_dir=tmp_path)
    report = writer.run_engine(HashSpGEMM(), matrix)
    key = writer.point_key(HashSpGEMM(), matrix)
    assert [path.name for path in tmp_path.iterdir()] == [f"{key}.json"]

    reader = ExperimentRunner(cache_dir=tmp_path)
    replayed = reader.run_engine(HashSpGEMM(), matrix)
    assert (reader.cache_hits, reader.cache_misses) == (1, 0)
    assert replayed == report
    assert replayed.extras == report.extras


def test_cache_shared_across_engines_unless_forced(matrix):
    # No forced engine: scalar- and vectorized-constructed baselines share
    # one cache entry (their counters are proven identical).
    runner = ExperimentRunner()
    runner.run_engine(GustavsonSpGEMM(engine="vectorized"), matrix)
    runner.run_engine(GustavsonSpGEMM(engine="scalar"), matrix)
    assert (runner.cache_hits, runner.cache_misses) == (1, 1)

    # Forced engines re-key per backend, so the cross-check really runs.
    scalar_runner = ExperimentRunner(engine="scalar")
    vector_runner = ExperimentRunner(engine="vectorized")
    scalar_report = scalar_runner.run_engine(GustavsonSpGEMM(), matrix)
    vector_report = vector_runner.run_engine(GustavsonSpGEMM(), matrix)
    assert scalar_report.backend == "scalar"
    assert vector_report.backend == "vectorized"
    key_scalar = _key(GustavsonSpGEMM(engine="scalar"), matrix,
                      include_backend=True)
    key_vector = _key(GustavsonSpGEMM(engine="vectorized"), matrix,
                      include_backend=True)
    assert key_scalar != key_vector
    # Same model, same matrix: everything but the backend label agrees.
    assert scalar_report.runtime_seconds == vector_report.runtime_seconds
    assert scalar_report.extras == vector_report.extras


def test_forced_engine_overrides_baseline_construction(matrix):
    runner = ExperimentRunner(engine="scalar")
    report = runner.run_engine(GustavsonSpGEMM(engine="vectorized"), matrix)
    assert report.backend == "scalar"


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


def test_baseline_batch_preserves_order_and_dedupes():
    matrices = [random_matrix(30, 30, 60, seed=s) for s in (1, 2)]
    tasks = [(GustavsonSpGEMM(), matrices[0]),
             (ArmadilloSpGEMM(), matrices[0]),
             (GustavsonSpGEMM(), matrices[1]),
             (GustavsonSpGEMM(), matrices[0])]  # duplicate of task 0
    runner = ExperimentRunner()
    reports = runner.run_engine_many(tasks)
    assert [r.detail["baseline"] for r in reports] == [
        "MKL", "Armadillo", "MKL", "MKL"]
    assert reports[0] == reports[3]
    # Three distinct points computed; the duplicate replayed from cache.
    assert runner.cache_misses == 3
    assert runner.cache_hits == 1


def test_custom_baseline_engine_runs_through_runner(matrix):
    """A custom baseline built on :class:`BaselineEngine` runs through the
    runner under its own name and label, including under a forced
    backend."""
    from repro.baselines.platforms import INTEL_CPU
    from repro.baselines.reference import scipy_spgemm

    class TrivialBaseline(BaselineEngine):
        name = "trivial"
        display_name = "Trivial"

        def __init__(self, *, engine=None):
            super().__init__(INTEL_CPU, engine=engine)

        def _multiply_scalar(self, matrix_a, matrix_b):
            return scipy_spgemm(matrix_a, matrix_b), BaselineCounters(
                multiplications=1, additions=0, bookkeeping_ops=0,
                traffic_bytes=1)

        _multiply_vectorized = _multiply_scalar

    for runner, backend in ((ExperimentRunner(), "vectorized"),
                            (ExperimentRunner(engine="scalar"), "scalar")):
        report = runner.run_engine(TrivialBaseline(), matrix)
        assert report.engine == "trivial"
        assert report.detail["baseline"] == "Trivial"
        assert report.backend == backend
        assert report.output_nnz > 0


def test_rectangular_baseline_point():
    from repro.matrices.synthetic import bipartite_matrix

    a = bipartite_matrix(20, 30, 3.0, seed=5)
    b = bipartite_matrix(30, 10, 2.0, seed=6)
    runner = ExperimentRunner()
    report = runner.run_engine(GustavsonSpGEMM(), a, matrix_b=b)
    direct = GustavsonSpGEMM().run(a, b)
    assert report.runtime_seconds == direct.report.runtime_seconds
    assert report.output_nnz == direct.matrix.nnz


@pytest.mark.parametrize("name", BASELINES)
def test_forced_keys_of_one_instance_follow_its_backend(name, matrix):
    """An instance's identity memo is keyed by the backend it hashed.

    ``using_backend`` copies a baseline shallowly, so the copy shares the
    memo; the forced-scalar key taken after a forced-vectorized one must
    still be a fresh instance's, never the vectorized fingerprint.
    """
    engine = create_engine(name)
    vectorized = ExperimentRunner(engine="vectorized").point_key(engine,
                                                                 matrix)
    scalar = ExperimentRunner(engine="scalar").point_key(engine, matrix)
    assert vectorized != scalar
    assert scalar == ExperimentRunner(engine="scalar").point_key(
        create_engine(name), matrix)
