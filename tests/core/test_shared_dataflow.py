"""One dataflow priced under many configurations equals one run per config.

:meth:`SpArch.price` turns a :class:`~repro.core.accelerator.Dataflow` into
one configuration's statistics, and the experiment runner prices every
batched-engine point of a group over one dataflow.  This module pins:

* exactness — priced statistics and cost reports equal a full
  ``SpArch(config).multiply`` for random operands, the Figure 17 grid,
  every pricing field perturbed alone and all 16 ablation combinations;
* the field classification — a pricing field never changes the dataflow,
  and every other field changes the sharing key;
* the recorded access order — each leaf's B rows, leaf by leaf in plan
  order;
* who shares — spies count dataflows in sweeps and runner batches, and a
  one-point group runs exactly as a lone point;
* the sweep driver's batches — one scenario per ``run_engine_many`` call
  at ``jobs=1``, and the same store bytes at ``jobs=2``.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import GustavsonSpGEMM
from repro.core.accelerator import SpArch
from repro.core.condensing import partial_matrix_sizes
from repro.core.config import PRICING_FIELDS, SpArchConfig
from repro.engines.adapters import BaselineEngineAdapter
from repro.engines.sparch import SpArchEngine, run_shared
from repro.experiments.designspace import fig17_grid, flatten_grid
from repro.experiments.runner import (
    ExperimentRunner,
    _engine_group_task,
    _engine_task,
)
from repro.formats.condensed import CondensedMatrix
from repro.matrices.rmat import RMATConfig, generate_rmat
from repro.matrices.synthetic import random_matrix
from repro.memory.hbm import HBMConfig
from repro.metrics.report import CostReport
from repro.sweeps import get_sweep, run_sweep

#: A value other than the default for every ``SpArchConfig`` field.  The
#: pricing fields must leave the dataflow alone; every other field must
#: change the sharing key.
PERTURBED = {
    "merger_width": 8,
    "merger_chunk_size": 2,
    "num_multipliers": 4,
    "lookahead_fifo_elements": 64,
    "prefetch_buffer_lines": 6,
    "prefetch_line_elements": 5,
    "prefetch_element_bytes": 8,
    "enable_row_prefetcher": False,
    "clock_hz": 7.5e8,
    "round_startup_cycles": 7,
    "hbm": HBMConfig(num_channels=4, bytes_per_second_per_channel=6e9),
    "merge_tree_layers": 3,
    "partial_matrix_writer_fifo": 64,
    "index_bytes": 4,
    "value_bytes": 4,
    "engine": "scalar",
    "enable_pipelined_merge": False,
    "enable_matrix_condensing": False,
    "enable_huffman_scheduler": False,
}

#: A base that forces multi-round spilling and buffer pressure on small
#: operands, so every pricing path has work to price.
BASE = SpArchConfig(merge_tree_layers=2, prefetch_buffer_lines=8,
                    prefetch_line_elements=4, lookahead_fifo_elements=32)


def perturbed(config: SpArchConfig, field: str) -> SpArchConfig:
    return config.replace(**{field: PERTURBED[field]})


def pricing_variants(base: SpArchConfig, buffer_scales=(1, 16)
                     ) -> list[SpArchConfig]:
    """``base``, each pricing field perturbed alone, and its Fig. 17 grids."""
    variants = [base] + [perturbed(base, field) for field in PRICING_FIELDS]
    for buffer_scale in buffer_scales:
        variants += [config for _, config in
                     flatten_grid(fig17_grid(base, buffer_scale=buffer_scale))]
    return variants


def assert_same_result(left, right) -> None:
    assert left.shape == right.shape
    np.testing.assert_array_equal(left.indptr, right.indptr)
    np.testing.assert_array_equal(left.indices, right.indices)
    np.testing.assert_array_equal(left.data, right.data)


def assert_priced_like_full_runs(matrix_a, matrix_b,
                                 configs: list[SpArchConfig]) -> None:
    """Pricing one dataflow under every config equals a run per config."""
    runs = run_shared([SpArchEngine(config) for config in configs],
                      matrix_a, matrix_b)
    dataflow = runs[0].dataflow
    for config, run in zip(configs, runs):
        full = SpArch(config).multiply(matrix_a, matrix_b)
        assert SpArch(config).price(dataflow).to_dict() == \
            full.stats.to_dict()
        expected = CostReport.from_stats(full.stats, config=config,
                                         engine="sparch")
        assert run.report.to_dict() == expected.to_dict()
        assert run.matrix is dataflow.matrix
        assert_same_result(run.matrix, full.matrix)


# ----------------------------------------------------------------------
# Exactness
# ----------------------------------------------------------------------
@st.composite
def operands(draw):
    """A random square operand (``A · A``) or a rectangular pair."""
    seed = draw(st.integers(0, 2 ** 16))
    rows = draw(st.integers(1, 40))
    inner = draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 0.3))
    matrix_a = random_matrix(rows, inner, int(density * rows * inner),
                             seed=seed)
    if draw(st.booleans()):
        cols = draw(st.integers(1, 40))
        matrix_b = random_matrix(inner, cols, int(density * inner * cols),
                                 seed=seed + 1)
        return matrix_a, matrix_b
    square = random_matrix(rows, rows, int(density * rows * rows), seed=seed)
    return square, square


ABLATIONS = list(itertools.product([True, False], repeat=4))


@given(operands(), st.sampled_from(ABLATIONS))
@settings(max_examples=30, deadline=None)
def test_priced_dataflow_equals_full_runs(pair, ablation):
    pipelined, condensing, huffman, prefetcher = ablation
    base = BASE.with_features(pipelined_merge=pipelined,
                              matrix_condensing=condensing,
                              huffman_scheduler=huffman,
                              row_prefetcher=prefetcher)
    assert_priced_like_full_runs(*pair, pricing_variants(base))


@pytest.mark.parametrize("ablation", ABLATIONS,
                         ids=lambda flags: "".join("+" if flag else "-"
                                                   for flag in flags))
def test_rmat_priced_under_every_ablation(ablation):
    pipelined, condensing, huffman, prefetcher = ablation
    matrix = generate_rmat(RMATConfig(num_rows=120, edge_factor=6, seed=4))
    base = BASE.with_features(pipelined_merge=pipelined,
                              matrix_condensing=condensing,
                              huffman_scheduler=huffman,
                              row_prefetcher=prefetcher)
    assert_priced_like_full_runs(matrix, matrix,
                                 pricing_variants(base, buffer_scales=(16,)))


def test_empty_operand_is_priced_like_a_full_run():
    empty = random_matrix(12, 12, 0, seed=1)
    assert_priced_like_full_runs(empty, empty, pricing_variants(BASE))


# ----------------------------------------------------------------------
# Field classification
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["scalar", "vectorized"])
def test_access_order_is_the_plan_order_leaf_by_leaf(engine):
    """The prefetcher replays each leaf's B rows whole, leaf by leaf in
    plan order -- not Fig. 7's interleaving of a round's condensed columns
    row by row (DESIGN.md §11)."""
    matrix = random_matrix(60, 60, 300, seed=12)
    config = SpArchConfig(engine=engine, merge_tree_layers=2)
    dataflow = SpArch(config).run_dataflow(matrix, matrix)
    condensed = CondensedMatrix(matrix)
    plan = SpArch(config)._build_plan(partial_matrix_sizes(condensed, matrix))
    assert len(plan.rounds) > 1
    expected = np.concatenate([condensed.column(leaf).original_cols
                               for leaves in plan.leaf_rounds()
                               for leaf in leaves])
    np.testing.assert_array_equal(dataflow.access_order, expected)


def test_perturbations_cover_every_config_field():
    names = {field.name for field in dataclasses.fields(SpArchConfig)}
    assert set(PERTURBED) == names
    assert set(PRICING_FIELDS) <= names
    for field in names:
        assert getattr(SpArchConfig(), field) != PERTURBED[field], field


@pytest.mark.parametrize("field", PRICING_FIELDS)
def test_pricing_field_leaves_the_dataflow_alone(field):
    matrix = generate_rmat(RMATConfig(num_rows=150, edge_factor=5, seed=8))
    config = perturbed(BASE, field)
    assert config.dataflow_key() == BASE.dataflow_key()
    reference = SpArch(BASE).run_dataflow(matrix, matrix)
    other = SpArch(config).run_dataflow(matrix, matrix)
    assert_same_result(reference.matrix, other.matrix)
    np.testing.assert_array_equal(reference.access_order, other.access_order)
    assert reference.round_lengths == other.round_lengths
    assert reference.stats.to_dict() == other.stats.to_dict()


@pytest.mark.parametrize(
    "field", [name for name in PERTURBED if name not in PRICING_FIELDS])
def test_every_other_field_changes_the_sharing_key(field):
    config = perturbed(SpArchConfig(), field)
    assert config.dataflow_key() != SpArchConfig().dataflow_key()


def test_price_refuses_a_dataflow_with_another_key():
    matrix = random_matrix(30, 30, 120, seed=2)
    dataflow = SpArch(BASE).run_dataflow(matrix, matrix)
    with pytest.raises(ValueError, match="PRICING_FIELDS"):
        SpArch(perturbed(BASE, "merge_tree_layers")).price(dataflow)


def test_scalar_dataflow_prices_only_its_own_config():
    matrix = random_matrix(30, 30, 120, seed=2)
    scalar = BASE.replace(engine="scalar")
    dataflow = SpArch(scalar).run_dataflow(matrix, matrix)
    assert dataflow.merge_stats is not None
    SpArch(scalar).price(dataflow)
    with pytest.raises(ValueError, match="scalar"):
        SpArch(perturbed(scalar, "merger_width")).price(dataflow)


# ----------------------------------------------------------------------
# Who shares: spies on the dataflow step
# ----------------------------------------------------------------------
@pytest.fixture
def dataflows(monkeypatch):
    """Count :meth:`SpArch.run_dataflow` calls made in this process."""
    calls = []
    real = SpArch.run_dataflow

    def counting(self, matrix_a, matrix_b):
        calls.append(self.config)
        return real(self, matrix_a, matrix_b)

    monkeypatch.setattr(SpArch, "run_dataflow", counting)
    return calls


def test_cold_fig17_sweep_runs_one_dataflow_per_operand(dataflows,
                                                        tmp_path):
    spec = get_sweep("fig17-dse")
    runner = ExperimentRunner()
    path = tmp_path / "store.jsonl"
    summary, store = run_sweep(spec, store=path, runner=runner)
    store.close()
    assert summary.executed == summary.cells_grid == 105
    assert runner.cache_misses == 100  # five labels coincide per scenario
    assert len(dataflows) == 5
    rerun, store = run_sweep(spec, store=path, runner=runner)
    store.close()
    assert rerun.replayed == 105
    assert len(dataflows) == 5


ALONE = {
    "batched": lambda: SpArchEngine(BASE),
    "scalar": lambda: SpArchEngine(BASE.replace(engine="scalar")),
    "baseline": lambda: BaselineEngineAdapter(GustavsonSpGEMM()),
}


@pytest.mark.parametrize("kind", list(ALONE))
def test_one_point_group_is_the_plain_run(dataflows, kind):
    """A group of one reports exactly what a lone point task reports."""
    matrix = random_matrix(40, 40, 160, seed=7)
    engine = ALONE[kind]()
    alone = _engine_task((engine, matrix, None))
    calls = len(dataflows)
    assert _engine_group_task(([engine], matrix, None)) == [alone]
    assert len(dataflows) - calls == (0 if kind == "baseline" else 1)


def test_scalar_points_run_one_dataflow_each(dataflows):
    matrix = random_matrix(40, 40, 200, seed=6)
    configs = [BASE.replace(engine="scalar")] + [
        perturbed(BASE.replace(engine="scalar"), field)
        for field in ("merger_width", "prefetch_buffer_lines", "clock_hz")]
    runner = ExperimentRunner()
    reports = runner.run_engine_many(
        [(SpArchEngine(config), matrix) for config in configs])
    assert len(dataflows) == len(configs)
    for config, report in zip(configs, reports):
        assert report.to_stats().to_dict() == \
            SpArch(config).multiply(matrix, matrix).stats.to_dict()


def test_forced_scalar_runner_shares_nothing(dataflows):
    matrix = random_matrix(40, 40, 200, seed=6)
    configs = [BASE, perturbed(BASE, "merger_width")]
    ExperimentRunner(engine="scalar").run_engine_many(
        [(SpArchEngine(config), matrix) for config in configs])
    assert len(dataflows) == 2


def test_runner_groups_by_operand_and_key(dataflows):
    first = random_matrix(40, 40, 200, seed=6)
    second = random_matrix(40, 40, 200, seed=7)
    shared = [BASE, perturbed(BASE, "merger_width"),
              perturbed(BASE, "prefetch_buffer_lines")]
    other_key = perturbed(BASE, "merge_tree_layers")
    tasks = [(SpArchEngine(config), matrix)
             for matrix in (first, second)
             for config in (*shared, other_key)]
    reports = ExperimentRunner().run_engine_many(tasks)
    assert len(dataflows) == 4  # two operands x two sharing keys
    for (engine, matrix), report in zip(tasks, reports):
        assert report.to_stats().to_dict() == \
            SpArch(engine.config).multiply(matrix, matrix).stats.to_dict()


# ----------------------------------------------------------------------
# The sweep driver hands the runner whole scenarios
# ----------------------------------------------------------------------
def test_each_batch_carries_one_scenario_at_one_job(monkeypatch):
    batches = []
    real = ExperimentRunner.run_engine_many

    def recording(self, tasks, **kwargs):
        batches.append([matrix for _, matrix in tasks])
        return real(self, tasks, **kwargs)

    monkeypatch.setattr(ExperimentRunner, "run_engine_many", recording)
    spec = get_sweep("fig17-dse")
    run_sweep(spec, runner=ExperimentRunner(jobs=1))
    assert len(batches) == 5
    for matrices in batches:
        assert len(matrices) == len(spec.configs)
        assert len({id(matrix) for matrix in matrices}) == 1


def test_two_jobs_write_the_same_store_bytes(tmp_path):
    spec = get_sweep("fig17-dse")
    for jobs in (1, 2):
        _, store = run_sweep(spec, store=tmp_path / f"jobs{jobs}.jsonl",
                             runner=ExperimentRunner(jobs=jobs))
        store.close()
    assert (tmp_path / "jobs1.jsonl").read_bytes() == \
        (tmp_path / "jobs2.jsonl").read_bytes()
