"""The engine registry: every system reachable by name, one invariant suite."""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines import GustavsonSpGEMM
from repro.engines import Engine, SpArchEngine
from repro.engines.registry import (
    EngineEntry,
    create_engine,
    get_engine_entry,
    list_engines,
    resolve_engine,
)
from repro.matrices.synthetic import (
    banded_matrix,
    powerlaw_matrix,
    random_matrix,
)

#: The acceptance surface: SpArch plus the baselines, all by name.
EXPECTED_ENGINES = ("sparch", "outerspace", "mkl", "cusparse", "cusp",
                    "armadillo", "heap", "innerproduct")

#: Each baseline's registry id and comparison-table label.
BASELINE_LABELS = {
    "outerspace": "OuterSPACE",
    "mkl": "MKL",
    "cusparse": "cuSPARSE",
    "cusp": "CUSP",
    "armadillo": "Armadillo",
    "heap": "HeapSpGEMM",
    "innerproduct": "InnerProduct",
}

#: Shared invariant suite: structurally diverse small matrices.
SUITE = {
    "powerlaw": powerlaw_matrix(80, 4.0, seed=21),
    "random": random_matrix(64, 64, 400, seed=22),
    "banded": banded_matrix(72, 5.0, seed=23),
}


class TestRegistrySurface:
    def test_every_expected_engine_is_registered(self):
        assert list_engines() == list(EXPECTED_ENGINES)

    @pytest.mark.parametrize("name", EXPECTED_ENGINES)
    def test_create_engine_builds_a_runnable_engine(self, name):
        engine = create_engine(name)
        assert isinstance(engine, Engine)
        assert engine.name == name
        assert engine.kind in ("simulation", "baseline")

    @pytest.mark.parametrize("name", EXPECTED_ENGINES)
    def test_entry_name_and_kind_are_its_class(self, name):
        """An entry holds a title and a class; id and kind are the class's."""
        assert [field.name for field in dataclasses.fields(EngineEntry)] == [
            "title", "factory"]
        entry = get_engine_entry(name)
        engine = create_engine(name)
        assert type(engine) is entry.factory
        assert engine.name == entry.factory.name == name
        assert engine.kind == entry.factory.kind == (
            "simulation" if name == "sparch" else "baseline")

    def test_unknown_engine_fails_with_suggestions(self):
        with pytest.raises(KeyError, match="known engines"):
            create_engine("not-an-engine")

    def test_resolve_engine_passes_instances_through(self):
        engine = SpArchEngine()
        assert resolve_engine(engine) is engine
        assert resolve_engine("mkl").display_name == "MKL"

    def test_a_constructed_baseline_is_an_engine(self):
        baseline = GustavsonSpGEMM()
        assert isinstance(baseline, Engine)
        assert baseline.name == "mkl"
        assert baseline.display_name == "MKL"
        assert baseline.backend == "vectorized"

    @pytest.mark.parametrize("name, display_name", BASELINE_LABELS.items())
    def test_baseline_engine_is_its_registered_class(self, name,
                                                     display_name):
        """The registry builds the baseline class itself, whose ``name``
        is the registry id (so a report's ``engine`` label resolves via
        create_engine) and whose ``display_name`` is the table label."""
        engine = create_engine(name)
        assert type(engine) is get_engine_entry(name).factory
        assert engine.name == name
        assert engine.display_name == display_name

    def test_using_backend_pins_the_execution_backend(self):
        scalar = create_engine("mkl").using_backend("scalar")
        assert scalar.backend == "scalar"
        assert scalar.using_backend("scalar") is scalar
        sparch_scalar = create_engine("sparch").using_backend("scalar")
        assert sparch_scalar.backend == "scalar"
        assert sparch_scalar.config.engine == "scalar"


class TestCrossEngineInvariants:
    """Counters that every formulation must agree on, engine by engine.

    Inner, row-wise and outer products all generate exactly one partial
    product per (A element, matching B row element) pair, and all engines
    are functionally exact — so multiplications and output nonzeros are
    engine-independent on any input.
    """

    @pytest.fixture(scope="class")
    def suite_runs(self):
        return {
            matrix_name: {name: create_engine(name).run(matrix)
                          for name in list_engines()}
            for matrix_name, matrix in SUITE.items()
        }

    @pytest.mark.parametrize("matrix_name", list(SUITE))
    def test_multiplications_identical_across_engines(self, suite_runs,
                                                      matrix_name):
        counts = {name: run.report.multiplications
                  for name, run in suite_runs[matrix_name].items()}
        assert len(set(counts.values())) == 1, counts

    @pytest.mark.parametrize("matrix_name", list(SUITE))
    def test_output_nnz_identical_across_engines(self, suite_runs,
                                                 matrix_name):
        counts = {name: run.report.output_nnz
                  for name, run in suite_runs[matrix_name].items()}
        assert len(set(counts.values())) == 1, counts

    @pytest.mark.parametrize("matrix_name", list(SUITE))
    def test_result_matrices_structurally_identical(self, suite_runs,
                                                    matrix_name):
        import numpy as np

        runs = suite_runs[matrix_name]
        reference = runs["sparch"].matrix
        for name, run in runs.items():
            np.testing.assert_array_equal(run.matrix.indptr,
                                          reference.indptr, err_msg=name)
            np.testing.assert_array_equal(run.matrix.indices,
                                          reference.indices, err_msg=name)

    @pytest.mark.parametrize("matrix_name", list(SUITE))
    def test_reports_carry_consistent_derived_metrics(self, suite_runs,
                                                      matrix_name):
        for name, run in suite_runs[matrix_name].items():
            report = run.report
            assert report.flops == report.multiplications + report.additions
            assert report.dram_bytes == sum(report.traffic.values())
            if report.runtime_seconds > 0:
                assert report.gflops > 0
