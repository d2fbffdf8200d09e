"""Stage-stats accounting: aggregates, memoisation, cached-re-run identity.

The satellite property: a pipeline's aggregate cycles / DRAM bytes / energy
always equal the sum over its stages' records (SpGEMM stages carry the
simulator's numbers, host stages are charged zero), and re-running a
workload against a warm cache returns an identical
:class:`~repro.workloads.pipeline.WorkloadResult` without recomputing any
simulation point.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.energy import EnergyModel
from repro.core.config import SpArchConfig
from repro.engines.sparch import SpArchEngine
from repro.experiments.runner import ExperimentRunner
from repro.matrices import powerlaw_matrix, random_matrix
from repro.workloads import list_workloads, run_workload

#: Cheap per-workload parameters for the property test.
TINY_PARAMS = {"mcl": {"max_iterations": 2}, "khop": {"k": 3},
               "pagerank": {"max_iterations": 4},
               "amg_vcycle": {"max_levels": 2},
               "gnn_sample": {"layers": 2}}


def _tiny_matrix(seed: int, family: str):
    if family == "powerlaw":
        return powerlaw_matrix(40, 3.0, seed=seed)
    return random_matrix(40, 40, 150, seed=seed)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       family=st.sampled_from(["powerlaw", "random"]),
       workload_id=st.sampled_from(list_workloads()))
def test_aggregate_equals_the_sum_over_stages(seed, family, workload_id):
    matrix = _tiny_matrix(seed, family)
    config = SpArchConfig()
    result = run_workload(workload_id, matrix, engine=SpArchEngine(config),
                          runner=ExperimentRunner(),
                          **TINY_PARAMS.get(workload_id, {}))

    spgemms = [stage for stage in result.stages if stage.is_spgemm]
    hosts = [stage for stage in result.stages if not stage.is_spgemm]

    # Host stages are charged zero accelerator cost...
    for stage in hosts:
        assert (stage.cycles, stage.dram_bytes, stage.energy_joules,
                stage.runtime_seconds) == (0, 0, 0.0, 0.0)
        assert stage.stats is None and stage.report is None
    # ...so the totals must equal the sum of the simulator's own numbers.
    energy_model = EnergyModel()
    assert result.total_cycles == sum(s.stats.cycles for s in spgemms)
    assert result.total_dram_bytes == sum(s.stats.dram_bytes for s in spgemms)
    assert result.total_multiplications == sum(
        s.stats.multiplications for s in spgemms)
    assert result.total_additions == sum(s.stats.additions for s in spgemms)
    np.testing.assert_allclose(
        result.total_runtime_seconds,
        sum(s.stats.runtime_seconds for s in spgemms))
    np.testing.assert_allclose(
        result.total_energy_joules,
        sum(energy_model.total_energy(s.stats, config) for s in spgemms))


def test_cached_rerun_returns_an_identical_workload_result(tmp_path):
    matrix = powerlaw_matrix(70, 4.0, seed=21)
    runner = ExperimentRunner(cache_dir=tmp_path)
    cold = run_workload("mcl", matrix, runner=runner, max_iterations=3)
    cold_misses = runner.cache_misses
    # One miss per distinct simulation point (iterations can repeat a point
    # once the process becomes idempotent, so ≤, not ==).
    assert 1 <= cold_misses <= len(cold.spgemm_stages)

    warm = run_workload("mcl", matrix, runner=runner, max_iterations=3)
    assert warm == cold  # stage records, annotations, backend — everything
    assert runner.cache_misses == cold_misses  # zero new simulations
    assert runner.cache_hits >= len(cold.spgemm_stages)
    np.testing.assert_array_equal(warm.output.data, cold.output.data)

    # A fresh runner on the same disk cache replays without simulating.
    replay_runner = ExperimentRunner(cache_dir=tmp_path)
    replay = run_workload("mcl", matrix, runner=replay_runner,
                          max_iterations=3)
    assert replay == cold
    assert replay_runner.cache_misses == 0


def test_cached_rerun_is_identical_for_baseline_backends():
    matrix = powerlaw_matrix(70, 4.0, seed=22)
    runner = ExperimentRunner()
    cold = run_workload("khop", matrix, engine="cusparse", runner=runner)
    misses = runner.cache_misses
    warm = run_workload("khop", matrix, engine="cusparse", runner=runner)
    assert warm == cold
    assert runner.cache_misses == misses
