"""Tests for the workload registry, the five pipelines, and the CLI."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.apps import count_triangles
from repro.core.config import SpArchConfig
from repro.engines.sparch import SpArchEngine
from repro.experiments.runner import ExperimentRunner
from repro.formats.convert import to_scipy
from repro.matrices import powerlaw_matrix
from repro.workloads import (
    WORKLOADS,
    get_workload,
    list_workloads,
    run_workload,
)
from repro.workloads.__main__ import main
from repro.workloads.ops import simple_graph


@pytest.fixture()
def matrix():
    return powerlaw_matrix(80, 4.0, seed=13)


@pytest.fixture()
def runner():
    return ExperimentRunner()


class TestRegistry:
    def test_at_least_five_workloads_registered(self):
        ids = list_workloads()
        assert len(ids) >= 5
        for expected in ("triangles", "mcl", "khop", "galerkin", "cosine"):
            assert expected in ids

    def test_specs_are_frozen_with_titles(self):
        for spec in WORKLOADS:
            assert spec.title and spec.description
            with pytest.raises(AttributeError):
                spec.title = "mutated"

    def test_get_workload_unknown_id_lists_known_ids(self):
        with pytest.raises(KeyError, match="known ids: triangles, mcl"):
            get_workload("not-a-workload")

    def test_param_merging(self):
        compiled = get_workload("khop").compiled
        assert compiled.resolve_params() == {"k": 3, "normalize": True}
        assert compiled.resolve_params({"k": 5}) == {"k": 5,
                                                     "normalize": True}

    @pytest.mark.parametrize("keyword", ["config", "baseline", "via",
                                         "executor"])
    def test_removed_backend_keywords_fail_naming_the_keyword(self, matrix,
                                                              keyword):
        with pytest.raises(TypeError, match=rf"workload 'triangles' got an "
                                            rf"unexpected parameter "
                                            rf"'{keyword}'"):
            run_workload("triangles", matrix, **{keyword: None})

    def test_runner_memoises_an_engine_instance(self, matrix, runner):
        engine = SpArchEngine(SpArchConfig(engine="scalar"))
        cold = run_workload("khop", matrix, engine=engine, runner=runner)
        spgemms = len(cold.spgemm_stages)
        assert (runner.cache_hits, runner.cache_misses) == (0, spgemms)
        warm = run_workload("khop", matrix, engine=engine, runner=runner)
        assert (runner.cache_hits, runner.cache_misses) == (spgemms, spgemms)
        assert warm == cold


class TestWorkloadFunctionalResults:
    def test_triangles_matches_the_app(self, matrix, runner):
        result = run_workload("triangles", matrix, runner=runner)
        app = count_triangles(matrix)
        assert result.annotations["triangles"] == app.triangles
        assert result.annotations["wedges"] == app.wedges
        assert len(result.spgemm_stages) == 1

    def test_khop_counts_walks_exactly(self, matrix, runner):
        result = run_workload("khop", matrix, runner=runner, k=4)
        adjacency = simple_graph(to_scipy(matrix)).toarray()
        expected = np.linalg.matrix_power(adjacency, 4)
        np.testing.assert_allclose(result.output.to_dense(), expected)
        assert result.annotations["total_walks"] == expected.sum()
        assert len(result.spgemm_stages) == 3

    def test_galerkin_equals_the_dense_triple_product(self, matrix, runner):
        result = run_workload("galerkin", matrix, runner=runner, group_size=5)
        dense = to_scipy(matrix).toarray()
        groups = (np.arange(80) // 5)
        prolongator = np.zeros((80, 16))
        prolongator[np.arange(80), groups] = 1.0
        expected = prolongator.T @ dense @ prolongator
        np.testing.assert_allclose(result.output.to_dense(), expected,
                                   atol=1e-9)
        assert result.annotations["coarse_rows"] == 16

    def test_cosine_join_keeps_only_high_similarity_pairs(self, matrix, runner):
        threshold = 0.3
        result = run_workload("cosine", matrix, runner=runner,
                              threshold=threshold)
        values = result.output.data
        assert values.min() >= threshold
        assert values.max() <= 1.0 + 1e-9
        # The join of a row with itself is cosine 1 — kept for nonzero rows.
        dense = result.output.to_dense()
        row_nonzero = to_scipy(matrix).getnnz(axis=1) > 0
        np.testing.assert_allclose(np.diag(dense)[row_nonzero], 1.0)

    def test_mcl_runs_and_annotates_convergence(self, matrix, runner):
        result = run_workload("mcl", matrix, runner=runner, max_iterations=3)
        assert 1 <= result.annotations["iterations"] <= 3
        assert set(result.annotations) >= {"iterations", "converged"}
        assert len(result.spgemm_stages) >= 1
        assert result.backend == "SpArch"

    def test_invalid_parameters_raise(self, matrix, runner):
        with pytest.raises(ValueError, match="k must be at least 2"):
            run_workload("khop", matrix, runner=runner, k=1)
        with pytest.raises(ValueError, match="expansion"):
            run_workload("mcl", matrix, runner=runner, expansion=1)

    def test_baseline_backend_produces_same_functional_output(self, matrix,
                                                              runner):
        on_sparch = run_workload("khop", matrix, runner=runner)
        on_mkl = run_workload("khop", matrix, engine="mkl", runner=runner)
        assert on_mkl.backend == "MKL"
        np.testing.assert_array_equal(on_mkl.output.indptr,
                                      on_sparch.output.indptr)
        np.testing.assert_array_equal(on_mkl.output.data,
                                      on_sparch.output.data)
        assert on_mkl.total_runtime_seconds > 0
        assert on_mkl.total_cycles == 0  # baselines model runtime, not cycles


class TestWorkloadsCli:
    def test_list_prints_every_workload(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        for workload_id in list_workloads():
            assert workload_id in output

    def test_no_arguments_behaves_like_list(self, capsys):
        assert main([]) == 0
        assert "mcl" in capsys.readouterr().out

    def test_running_one_workload_prints_the_stage_table(self, capsys):
        assert main(["galerkin", "--matrix", "wiki-Vote",
                     "--max-rows", "150"]) == 0
        output = capsys.readouterr().out
        assert "RAP" in output and "TOTAL" in output
        assert "stage simulations computed" in output

    def test_unknown_workload_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="known ids"):
            main(["not-a-workload"])

    def test_engine_fuse_and_json_flags(self, capsys, tmp_path):
        import json

        out = tmp_path / "payloads.json"
        assert main(["triangles", "tri_enum", "--matrix", "wiki-Vote",
                     "--max-rows", "120", "--engine", "scalar", "--fuse",
                     "--json", str(out)]) == 0
        assert "host [s]" in capsys.readouterr().out
        merged = json.loads(out.read_text())
        assert merged["engine"] == "scalar"
        assert merged["fused"] is True
        assert [r["workload_id"] for r in merged["results"]] == [
            "triangles", "tri_enum"]
        for result in merged["results"]:
            assert "output_sha256" in result
            host = [stage for stage in result["stages"]
                    if stage["kind"] != "spgemm"]
            assert all("host_seconds" in stage for stage in host)

    def test_scenario_flag_runs_on_a_corpus_scenario(self, capsys):
        assert main(["galerkin", "--scenario", "smoke/wiki-Vote@120"]) == 0
        assert "smoke/wiki-Vote@120" in capsys.readouterr().out
