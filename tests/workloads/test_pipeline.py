"""Tests for the pipeline builder, its two SpGEMM modes and host ops."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines import GustavsonSpGEMM
from repro.core.accelerator import SpArch
from repro.experiments.runner import ExperimentRunner
from repro.formats.convert import to_scipy
from repro.matrices import powerlaw_matrix, random_matrix
from repro.workloads import PipelineBuilder, register_host_op
from repro.workloads.ops import HOST_OPS, get_host_op, triangles_from_masked


@pytest.fixture()
def matrix():
    return random_matrix(60, 60, 300, seed=7)


class TestPipelineBuilder:
    def test_spgemm_stage_computes_the_product(self, matrix):
        pipeline = PipelineBuilder("sparch", inputs={"A": matrix})
        pipeline.spgemm("squared", "A", "A")
        expected = matrix.to_dense() @ matrix.to_dense()
        np.testing.assert_allclose(pipeline.value("squared").to_dense(),
                                   expected, atol=1e-9)

    def test_runner_mode_matches_engine_mode(self, matrix):
        engine = PipelineBuilder("sparch", inputs={"A": matrix})
        engine.spgemm("squared", "A", "A")
        runner = PipelineBuilder("sparch", runner=ExperimentRunner(),
                                 inputs={"A": matrix})
        runner.spgemm("squared", "A", "A")
        # Identical statistics; functional results agree to fp association.
        assert engine.stages[0].stats == runner.stages[0].stats
        np.testing.assert_allclose(runner.value("squared").to_dense(),
                                   engine.value("squared").to_dense(),
                                   atol=1e-9)

    def test_engine_mode_threads_the_engine_result(self, matrix):
        reference = SpArch().multiply(matrix, matrix)
        pipeline = PipelineBuilder("sparch", inputs={"A": matrix})
        pipeline.spgemm("squared", "A", "A")
        result = pipeline.value("squared")
        np.testing.assert_array_equal(result.data, reference.matrix.data)
        np.testing.assert_array_equal(result.indices, reference.matrix.indices)

    def test_baseline_executor_prices_with_the_platform_model(self, matrix):
        baseline = GustavsonSpGEMM()
        direct = baseline.run(matrix).report
        pipeline = PipelineBuilder("mkl", inputs={"A": matrix})
        pipeline.spgemm("squared", "A", "A")
        stage = pipeline.stages[0]
        assert pipeline.result("demo").backend == "MKL"
        assert stage.runtime_seconds == direct.runtime_seconds
        assert stage.dram_bytes == direct.dram_bytes
        assert stage.energy_joules == direct.energy_joules
        assert stage.report.kind == "baseline"
        assert stage.report.detail["baseline"] == "MKL"

    def test_baseline_runner_mode_memoises(self, matrix):
        runner = ExperimentRunner()
        pipeline = PipelineBuilder("mkl", runner=runner,
                                   inputs={"A": matrix})
        pipeline.spgemm("squared", "A", "A")
        pipeline.spgemm("again", "A", "A")
        assert (runner.cache_hits, runner.cache_misses) == (1, 1)
        assert pipeline.stages[0].report == pipeline.stages[1].report

    def test_stage_records_name_kind_and_inputs(self, matrix):
        pipeline = PipelineBuilder("sparch", inputs={"A": matrix})
        pipeline.spgemm("squared", "A", "A")
        pipeline.host("masked", "mask", "squared", "A")
        spgemm, host = pipeline.stages
        assert (spgemm.name, spgemm.kind, spgemm.inputs) == (
            "squared", "spgemm", ("A", "A"))
        assert spgemm.is_spgemm and spgemm.stats is not None
        assert (host.name, host.kind, host.inputs) == (
            "masked", "mask", ("squared", "A"))
        assert not host.is_spgemm
        assert (host.cycles, host.dram_bytes, host.energy_joules) == (0, 0, 0.0)

    def test_duplicate_stage_name_rejected(self, matrix):
        pipeline = PipelineBuilder("sparch", inputs={"A": matrix})
        pipeline.spgemm("squared", "A", "A")
        with pytest.raises(ValueError, match="already exists"):
            pipeline.spgemm("squared", "A", "A")
        with pytest.raises(ValueError, match="already exists"):
            pipeline.host("A", "transpose", "A")

    def test_unknown_value_and_op_errors(self, matrix):
        pipeline = PipelineBuilder("sparch", inputs={"A": matrix})
        with pytest.raises(KeyError, match="unknown pipeline value"):
            pipeline.spgemm("squared", "A", "B")
        with pytest.raises(KeyError, match="unknown host op"):
            pipeline.host("out", "not-an-op", "A")
        with pytest.raises(ValueError, match="at least one input"):
            PipelineBuilder("sparch", inputs={})

    def test_result_carries_output_and_annotations(self, matrix):
        pipeline = PipelineBuilder("sparch", inputs={"A": matrix})
        pipeline.spgemm("squared", "A", "A")
        pipeline.annotate("flag", 1)
        result = pipeline.result("demo", "squared")
        assert result.workload_id == "demo"
        assert result.backend == "SpArch"
        assert result.annotations == {"flag": 1.0}
        assert result.output is not None and result.output.nnz > 0
        assert result.num_stages == 1
        assert len(result.spgemm_stats) == 1


class TestHostOps:
    def test_registry_lookup_and_registration(self):
        assert "mask" in HOST_OPS
        with pytest.raises(KeyError, match="known ops"):
            get_host_op("missing")
        with pytest.raises(ValueError, match="already registered"):
            register_host_op("mask")(lambda m: m)

    def test_mask_is_elementwise(self, matrix):
        value = to_scipy(matrix)
        masked = get_host_op("mask")(value, value)
        np.testing.assert_allclose(masked.toarray(),
                                   value.toarray() * value.toarray())

    def test_normalize_columns_makes_columns_stochastic(self, matrix):
        normalized = get_host_op("normalize_columns")(abs(to_scipy(matrix)))
        sums = np.asarray(normalized.sum(axis=0)).ravel()
        nonempty = sums > 0
        np.testing.assert_allclose(sums[nonempty], 1.0)

    def test_normalize_rows_gives_unit_l2_rows(self, matrix):
        normalized = get_host_op("normalize_rows")(to_scipy(matrix))
        norms = np.sqrt(np.asarray(
            normalized.multiply(normalized).sum(axis=1)).ravel())
        nonempty = norms > 0
        np.testing.assert_allclose(norms[nonempty], 1.0)

    def test_prune_drops_small_entries(self):
        value = sp.csr_matrix(np.array([[0.5, 0.01], [0.0, 0.2]]))
        pruned = get_host_op("prune")(value, threshold=0.1)
        assert pruned.nnz == 2
        assert pruned.data.min() >= 0.1

    def test_simple_graph_is_symmetric_binary_zero_diagonal(self, matrix):
        graph = get_host_op("simple_graph")(to_scipy(matrix))
        dense = graph.toarray()
        np.testing.assert_array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0)
        assert set(np.unique(dense)) <= {0.0, 1.0}

    def test_aggregation_builds_a_partition_prolongator(self, matrix):
        prolongator = get_host_op("aggregation")(to_scipy(matrix),
                                                 group_size=7)
        dense = prolongator.toarray()
        assert dense.shape == (60, 9)
        np.testing.assert_allclose(dense.sum(axis=1), 1.0)  # one group each
        with pytest.raises(ValueError, match="group_size"):
            get_host_op("aggregation")(to_scipy(matrix), group_size=0)

    def test_transpose_and_binarize(self, matrix):
        value = to_scipy(matrix)
        transposed = get_host_op("transpose")(value)
        np.testing.assert_allclose(transposed.toarray(), value.toarray().T)
        binary = get_host_op("binarize")(value)
        assert set(np.unique(binary.data)) == {1.0}

    def test_triangles_from_masked_rejects_inconsistent_input(self):
        bad = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ArithmeticError, match="divisible by 3"):
            triangles_from_masked(bad)

    def test_triangles_from_masked_exact_on_a_clique(self):
        n = 6
        adjacency = sp.csr_matrix(np.ones((n, n)) - np.eye(n))
        masked = (adjacency @ adjacency).multiply(adjacency)
        per_node, total = triangles_from_masked(masked)
        assert total == n * (n - 1) * (n - 2) // 6
        np.testing.assert_allclose(per_node,
                                   (n - 1) * (n - 2) / 2 * np.ones(n))


def test_ops_do_not_mutate_their_operands():
    matrix = powerlaw_matrix(50, 4.0, seed=1)
    value = to_scipy(matrix)
    snapshot = value.copy()
    for name, params in [("mask", {}), ("normalize_columns", {}),
                         ("normalize_rows", {}), ("inflate", {"power": 2.0}),
                         ("prune", {"threshold": 0.5}), ("binarize", {}),
                         ("transpose", {}), ("simple_graph", {}),
                         ("mcl_setup", {}), ("aggregation", {})]:
        op = get_host_op(name)
        operands = (value, value) if name == "mask" else (value,)
        op(*operands, **params)
        assert (value != snapshot).nnz == 0, f"{name} mutated its operand"
