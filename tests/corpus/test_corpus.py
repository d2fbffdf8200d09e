"""Corpus layer: frozen scenario recipes, registry, deterministic builds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.corpus import (
    CORPORA,
    CorpusSpec,
    Scenario,
    get_corpus,
    list_corpora,
    rmat_grid,
    suite_ladder,
)
from repro.formats.csr import CSRMatrix


class TestRegistry:
    def test_registered_corpora(self):
        ids = list_corpora()
        assert ids[0] == "smoke"
        for expected in ("suite-small", "suite-ladder", "rmat-grid",
                         "density-sweep", "band-sweep"):
            assert expected in ids

    def test_lookup_and_error(self):
        assert get_corpus("smoke").corpus_id == "smoke"
        with pytest.raises(KeyError, match="unknown corpus"):
            get_corpus("not-a-corpus")

    def test_paper_scale_corpus_is_the_experiments_rung(self):
        """The corpus and ``load_paper_scale_suite`` share one rung."""
        from repro.corpus import registry
        from repro.experiments import common

        assert common.PAPER_SCALE_NAMES is registry.PAPER_SCALE_NAMES
        assert common.PAPER_SCALE_MAX_ROWS == registry.PAPER_SCALE_MAX_ROWS
        assert get_corpus("paper-scale").scenario_names() == [
            f"{name}@{common.PAPER_SCALE_MAX_ROWS}"
            for name in common.PAPER_SCALE_NAMES]

    def test_scenario_names_unique_within_each_corpus(self):
        for spec in CORPORA:
            names = spec.scenario_names()
            assert len(set(names)) == len(names), spec.corpus_id

    def test_every_registered_scenario_builds(self):
        # The smoke corpus fully; one scenario from each other corpus (the
        # larger members are exercised by the sweeps that use them).
        for spec in CORPORA:
            scenarios = (spec.scenarios if spec.corpus_id == "smoke"
                         else spec.scenarios[:1])
            for scenario in scenarios:
                matrix = scenario.build()
                assert isinstance(matrix, CSRMatrix)
                assert matrix.nnz > 0, scenario.name


class TestScenarioDeterminism:
    """Shards and resumed runs regenerate operands from the spec alone, so
    building twice (as if in two processes) must be bit-identical."""

    @pytest.mark.parametrize("scenario", get_corpus("smoke").scenarios,
                             ids=lambda s: s.name)
    def test_build_is_bit_identical(self, scenario):
        first, second = scenario.build(), scenario.build()
        np.testing.assert_array_equal(first.indptr, second.indptr)
        np.testing.assert_array_equal(first.indices, second.indices)
        np.testing.assert_array_equal(first.data, second.data)
        assert first.shape == second.shape


class TestScaling:
    def test_scaled_caps_every_family_dimension(self):
        for spec in CORPORA:
            capped = spec.scaled(64)
            assert capped.corpus_id == spec.corpus_id
            assert capped.scenario_names() == spec.scenario_names()
            for scenario in capped.scenarios:
                matrix = scenario.build()
                # Suite proxies floor their dimension at 64 rows; every
                # other family caps exactly.
                assert matrix.shape[0] <= 64 or scenario.family == "suite"

    def test_scaled_none_is_identity(self):
        spec = get_corpus("smoke")
        assert spec.scaled(None) is spec

    def test_scaled_is_noop_above_current_size(self):
        scenario = get_corpus("smoke").scenarios[0]
        assert scenario.scaled(10_000) is scenario

    def test_scaled_caps_explicit_num_cols_even_when_rows_fit(self):
        # Regression: a small-rows/wide-cols random scenario must still
        # cap its column dimension under the corpus scale contract.
        scenario = Scenario("wide", "random",
                            (("num_rows", 100), ("num_cols", 5000),
                             ("density", 0.01)))
        capped = scenario.scaled(200)
        assert capped.param_dict()["num_cols"] == 200
        assert capped.build().shape == (100, 200)


class TestSpecValidation:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            Scenario("x", "not-a-family", (("num_rows", 8),))

    def test_duplicate_params_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Scenario("x", "rmat", (("num_rows", 8), ("num_rows", 9)))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="no scenarios"):
            CorpusSpec("empty", "none", ())

    def test_duplicate_scenario_names_rejected(self):
        scenario = Scenario("dup", "rmat",
                            (("num_rows", 8), ("edge_factor", 2)))
        with pytest.raises(ValueError, match="duplicate"):
            CorpusSpec("dups", "twice", (scenario, scenario))

    def test_corpus_scenario_lookup(self):
        spec = get_corpus("smoke")
        name = spec.scenario_names()[0]
        assert spec.get_scenario(name).name == name
        with pytest.raises(KeyError, match="unknown scenario"):
            spec.get_scenario("missing")


class TestConstructors:
    def test_suite_ladder_crosses_names_and_rungs(self):
        spec = suite_ladder(("wiki-Vote", "facebook"), (100, 200),
                            corpus_id="ladder", title="t")
        assert spec.scenario_names() == [
            "wiki-Vote@100", "wiki-Vote@200",
            "facebook@100", "facebook@200",
        ]

    def test_rmat_grid_uses_paper_names(self):
        spec = rmat_grid((1000,), (4, 8), corpus_id="grid", title="t")
        assert spec.scenario_names() == ["rmat-1k-x4", "rmat-1k-x8"]
