"""The runner's unified CostReport memo and its schema-versioned keys."""

from __future__ import annotations

import json

import pytest

from repro.experiments import runner as runner_module
from repro.experiments.runner import ExperimentRunner, engine_point_key
from repro.baselines import GustavsonSpGEMM
from repro.core.config import SpArchConfig
from repro.engines.adapters import BaselineEngineAdapter
from repro.engines.sparch import SpArchEngine
from repro.matrices.synthetic import powerlaw_matrix
from repro.metrics.report import SCHEMA_VERSION, CostReport


@pytest.fixture()
def matrix():
    return powerlaw_matrix(70, 4.0, seed=41)


class TestSchemaVersionedFingerprint:
    """Satellite: a schema bump rotates every cache key, so pre-refactor
    entries invalidate cleanly instead of deserialising into the new
    CostReport shape."""

    def test_keys_rotate_when_the_schema_version_bumps(self, matrix,
                                                       monkeypatch):
        def keys():
            # Fresh engines each time: an engine memoises its identity.
            return [engine_point_key(engine, matrix, matrix,
                                     include_backend=forced)
                    for engine in (SpArchEngine(SpArchConfig()),
                                   BaselineEngineAdapter(GustavsonSpGEMM()))
                    for forced in (False, True)]

        keys_now = keys()
        monkeypatch.setattr(runner_module, "SCHEMA_VERSION",
                            SCHEMA_VERSION + 1)
        keys_bumped = keys()
        for now, bumped in zip(keys_now, keys_bumped):
            assert now != bumped

    def test_stale_schema_entries_recompute_instead_of_deserialising(
            self, matrix, tmp_path, monkeypatch):
        # Warm a disk cache under a *different* (older) schema version.
        monkeypatch.setattr(runner_module, "SCHEMA_VERSION",
                            SCHEMA_VERSION - 1)
        old = ExperimentRunner(cache_dir=tmp_path)
        old.simulate(matrix)
        assert old.cache_misses == 1
        monkeypatch.undo()

        # A current-schema runner over the same directory must miss (the
        # old entry's key no longer matches) and recompute cleanly.
        new = ExperimentRunner(cache_dir=tmp_path)
        new.simulate(matrix)
        assert (new.cache_hits, new.cache_misses) == (0, 1)

    def test_disk_payloads_carry_the_schema_version(self, matrix, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        runner.simulate(matrix)
        runner.run_baseline(GustavsonSpGEMM(), matrix)
        for kind in ("sim", "baseline"):
            entries = list((tmp_path / kind).glob("*.json"))
            assert entries, kind
            payload = json.loads(entries[0].read_text())
            assert payload["schema_version"] == SCHEMA_VERSION


class TestSelfProductCacheIdentity:
    """Satellite regression: self-products are keyed by fingerprint
    equality, so ``simulate(A)`` and an equal-content *copy* of A passed as
    ``matrix_b`` share one cache entry (an earlier revision hashed
    identity-based self-products as a ``b"self"`` sentinel, fragmenting the
    memo)."""

    @staticmethod
    def _copy_of(matrix):
        from repro.formats.csr import CSRMatrix

        return CSRMatrix(matrix.indptr.copy(), matrix.indices.copy(),
                         matrix.data.copy(), matrix.shape)

    def test_equal_content_copy_shares_the_key(self, matrix):
        from repro.engines.sparch import SpArchEngine
        from repro.experiments.runner import engine_point_key

        engine = SpArchEngine()
        self_key = engine_point_key(engine, matrix, None)
        assert engine_point_key(engine, matrix, matrix) == self_key
        assert engine_point_key(engine, matrix, self._copy_of(matrix)) == \
            self_key

    def test_distinct_b_still_gets_its_own_key(self, matrix):
        from repro.engines.sparch import SpArchEngine
        from repro.experiments.runner import engine_point_key
        from repro.matrices.synthetic import powerlaw_matrix

        other = powerlaw_matrix(matrix.shape[0], 4.0, seed=99)
        engine = SpArchEngine()
        assert engine_point_key(engine, matrix, other) != \
            engine_point_key(engine, matrix, None)

    def test_simulate_then_copy_product_hits_the_memo(self, matrix):
        from repro.engines.sparch import SpArchEngine

        runner = ExperimentRunner()
        native = runner.simulate(matrix)
        report = runner.run_engine(SpArchEngine(), matrix,
                                   matrix_b=self._copy_of(matrix))
        assert (runner.cache_hits, runner.cache_misses) == (1, 1)
        assert report.to_stats() == native

    def test_precomputed_fingerprints_reproduce_the_keys(self, matrix):
        """The dematerialised-operand path: keys computed from cached
        fingerprints (matrix_a=None, explicit fingerprint_b) must equal
        the keys computed from the matrices themselves."""
        from repro.engines.sparch import SpArchEngine
        from repro.experiments.runner import (engine_point_key,
                                              matrix_fingerprint)
        from repro.matrices.synthetic import powerlaw_matrix

        other = powerlaw_matrix(matrix.shape[0], 4.0, seed=99)
        engine = SpArchEngine()
        fp_a, fp_b = matrix_fingerprint(matrix), matrix_fingerprint(other)
        assert engine_point_key(engine, None, None, fingerprint_a=fp_a) == \
            engine_point_key(engine, matrix, None)
        # An explicit fingerprint_b wins even without a materialised B —
        # the A·B key must never silently alias to the A·A self-product.
        ab_key = engine_point_key(engine, None, None, fingerprint_a=fp_a,
                                  fingerprint_b=fp_b)
        assert ab_key == engine_point_key(engine, matrix, other)
        assert ab_key != engine_point_key(engine, matrix, None)
        with pytest.raises(ValueError, match="only with fingerprint_a"):
            engine_point_key(engine, None, None)

    def test_point_key_matches_the_execution_path(self, matrix):
        """ExperimentRunner.point_key (what sweep stores record) is the key
        run_engine memoises under, forced backend included."""
        for runner in (ExperimentRunner(), ExperimentRunner(engine="scalar")):
            key = runner.point_key("mkl", matrix)
            runner.run_engine("mkl", matrix)
            assert runner.store.load(key, "baseline") is not None
        unforced = ExperimentRunner().point_key("mkl", matrix)
        forced = ExperimentRunner(engine="scalar").point_key("mkl", matrix)
        assert unforced != forced  # forced backends re-key, as documented


class TestUnifiedReportMemo:
    def test_run_engine_returns_reports_from_both_cache_tiers(self, matrix,
                                                              tmp_path):
        writer = ExperimentRunner(cache_dir=tmp_path)
        fresh = writer.run_engine("cusparse", matrix)
        assert isinstance(fresh, CostReport)
        assert fresh.kind == "baseline"

        reader = ExperimentRunner(cache_dir=tmp_path)
        replayed = reader.run_engine("cusparse", matrix)
        assert (reader.cache_hits, reader.cache_misses) == (1, 0)
        assert replayed == fresh

    def test_run_engine_many_accepts_precomputed_keys(self, matrix, tmp_path,
                                                      monkeypatch):
        """Grid callers pass point_key results through run_engine_many to
        skip re-hashing each operand's CSR arrays per task."""
        runner = ExperimentRunner(cache_dir=tmp_path)
        reference = runner.run_engine_many([("sparch", matrix),
                                            ("mkl", matrix)])
        keys = [runner.point_key("sparch", matrix),
                runner.point_key("mkl", matrix)]
        calls = []
        monkeypatch.setattr(
            runner_module, "matrix_fingerprint",
            lambda m: calls.append(1) or "unused")
        fresh = ExperimentRunner(cache_dir=tmp_path)  # the warm memo
        assert fresh.run_engine_many([("sparch", matrix), ("mkl", matrix)],
                                     keys=keys) == reference
        assert not calls  # no operand was re-hashed
        with pytest.raises(ValueError, match="does not match"):
            fresh.run_engine_many([("sparch", matrix)], keys=keys)

    def test_run_engine_many_mixes_kinds_and_preserves_order(self, matrix):
        runner = ExperimentRunner()
        reports = runner.run_engine_many(
            [("sparch", matrix), ("mkl", matrix), ("sparch", matrix)])
        assert [r.kind for r in reports] == ["simulation", "baseline",
                                            "simulation"]
        assert reports[0] == reports[2]
        # Two distinct points; the duplicate replayed from the memo.
        assert (runner.cache_hits, runner.cache_misses) == (1, 2)

    def test_custom_engine_is_cacheable_through_its_cache_fields(self, matrix):
        """Any Engine implementation memoises via its own cache_fields()."""
        from repro.engines.base import Engine, EngineRun
        from repro.metrics.report import CostReport

        class ConstantEngine(Engine):
            name = "constant"
            display_name = "Constant"
            kind = "baseline"

            def run(self, matrix_a, matrix_b=None):
                return EngineRun(matrix=matrix_a, report=CostReport(
                    engine=self.name, kind="baseline",
                    runtime_seconds=1.0, output_nnz=matrix_a.nnz,
                    detail={"baseline": "Constant", "engine": "scalar",
                            "platform": "test", "runtime_seconds": 1.0,
                            "traffic_bytes": 0, "multiplications": 0,
                            "additions": 0, "bookkeeping_ops": 0,
                            "energy_joules": 0.0, "result_nnz": matrix_a.nnz,
                            "extras": {}}))

            def cache_fields(self):
                return {"engine": self.name}

            def using_backend(self, backend):
                return self

            @property
            def backend(self):
                return "scalar"

        runner = ExperimentRunner()
        first = runner.run_engine(ConstantEngine(), matrix)
        second = runner.run_engine(ConstantEngine(), matrix)
        assert (runner.cache_hits, runner.cache_misses) == (1, 1)
        assert first == second

    def test_same_named_baseline_variants_stay_distinct_in_comparisons(
            self, matrix):
        """Two parameterisations of one system must not collapse to one
        report in the fig11/fig12 gathering helper."""
        import dataclasses

        from repro.baselines import GustavsonSpGEMM
        from repro.baselines.platforms import INTEL_CPU
        from repro.experiments.common import gather_comparison_reports

        slow_platform = dataclasses.replace(INTEL_CPU,
                                            fixed_overhead_seconds=2e-3)
        fast = GustavsonSpGEMM()
        slow = GustavsonSpGEMM(platform=slow_platform)
        _, baseline_reports = gather_comparison_reports(
            {"m": (matrix, None)}, [fast, slow], runner=ExperimentRunner())
        assert (baseline_reports[("m", 0)].runtime_seconds
                < baseline_reports[("m", 1)].runtime_seconds)

    def test_custom_energy_model_does_not_poison_the_shared_cache(self, matrix):
        """Engines differing only in energy constants get distinct entries.

        Regression: the memoised report bakes per-module energy in, so a
        custom-constants engine must never replay a default-constants
        entry (or vice versa) from the shared memo.
        """
        from repro.analysis.energy import EnergyConstants, EnergyModel
        from repro.engines.sparch import SpArchEngine

        zero_dram = EnergyModel(constants=EnergyConstants(dram_byte=0.0))
        runner = ExperimentRunner()
        default_report = runner.run_engine(SpArchEngine(), matrix)
        custom_report = runner.run_engine(SpArchEngine(energy_model=zero_dram),
                                          matrix)
        assert runner.cache_misses == 2  # two points, no collision
        assert custom_report.energy["HBM"] == 0.0
        assert default_report.energy["HBM"] > 0.0
        assert custom_report.energy_joules < default_report.energy_joules
        # Direct (uncached) execution agrees with the memoised report.
        direct = SpArchEngine(energy_model=zero_dram).run(matrix).report
        assert direct.energy_joules == custom_report.energy_joules

    def test_forced_backend_rekeys_and_relabels(self, matrix):
        forced = ExperimentRunner(engine="scalar")
        report = forced.run_engine("mkl", matrix)
        assert report.backend == "scalar"
        shared = ExperimentRunner()
        assert shared.run_engine("mkl", matrix).backend == "vectorized"


def _unmemoised_key(engine, matrix, *, include_backend):
    """A point key derived afresh, bypassing the identity memo."""
    import hashlib

    from repro.experiments.runner import _identity_fingerprint, \
        matrix_fingerprint

    identity = dict(engine.cache_fields())
    if include_backend:
        identity["backend"] = engine.backend
    operand = matrix_fingerprint(matrix).encode()
    digest = hashlib.sha256()
    digest.update(operand)
    digest.update(operand)  # the self-product A · A
    digest.update(_identity_fingerprint(identity).encode())
    return digest.hexdigest()


class TestEngineIdentityMemo:
    """Point keys reuse each engine's identity fingerprint, and the memo
    never changes a key: stores written before it stay valid."""

    @pytest.mark.parametrize("forced", [None, "scalar", "vectorized"])
    def test_memoised_keys_equal_fresh_derivations(self, matrix, forced):
        from repro.analysis.energy import EnergyConstants, EnergyModel
        from repro.engines.registry import create_engine, list_engines
        from repro.engines.sparch import SpArchEngine

        runner = ExperimentRunner(engine=forced)
        engines = {name: create_engine(name) for name in list_engines()}
        engines["override"] = SpArchEngine(SpArchConfig(merge_tree_layers=4))
        engines["zero-dram"] = SpArchEngine(energy_model=EnergyModel(
            constants=EnergyConstants(dram_byte=0.0)))
        keys = {}
        for label, engine in engines.items():
            pinned = engine if forced is None else \
                engine.using_backend(forced)
            expected = _unmemoised_key(pinned, matrix,
                                       include_backend=forced is not None)
            # The first call fills the memo and the second reads it.
            keys[label] = runner.point_key(pinned, matrix)
            assert keys[label] == expected, label
            assert runner.point_key(pinned, matrix) == expected, label
        # Energy constants alone separate two SpArch points.
        assert len(set(keys.values())) == len(keys)

    def test_identity_is_derived_once_per_engine_and_keying(self, matrix,
                                                            monkeypatch):
        from repro.engines.sparch import SpArchEngine

        calls = []
        real = SpArchEngine.cache_fields
        monkeypatch.setattr(SpArchEngine, "cache_fields",
                            lambda self: calls.append(1) or real(self))
        engine = SpArchEngine()
        unforced = ExperimentRunner()
        key = unforced.point_key(engine, matrix)
        assert unforced.point_key(engine, matrix) == key
        assert len(calls) == 1
        # A forced runner keys with the backend: its own memo slot, filled
        # once.  The default engine already runs vectorized, so the runner
        # keys this very instance.
        assert engine.backend == "vectorized"
        forced = ExperimentRunner(engine="vectorized")
        forced_key = forced.point_key(engine, matrix)
        assert forced.point_key(engine, matrix) == forced_key != key
        assert len(calls) == 2
        # A fresh engine derives its own identity.
        unforced.point_key(SpArchEngine(), matrix)
        assert len(calls) == 3

    def test_concurrent_first_calls_agree(self):
        """Service threads share one engine: racing to fill its memo must
        never yield a key that differs from the fresh derivation."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from repro.engines.registry import create_engine, list_engines

        fingerprint = "ab" * 32
        runner = ExperimentRunner()
        expected = {name: runner.point_key(create_engine(name), None,
                                           fingerprint_a=fingerprint)
                    for name in list_engines()}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                engines = {name: create_engine(name) for name in expected}
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [(name, pool.submit(runner.point_key, engine,
                                                  None,
                                                  fingerprint_a=fingerprint))
                               for name, engine in engines.items()
                               for _ in range(8)]
                    for name, future in futures:
                        assert future.result(timeout=30) == expected[name]
        finally:
            sys.setswitchinterval(interval)

    def test_keys_are_pinned(self):
        """Keys written by earlier versions must keep resolving: a changed
        derivation would silently invalidate every store."""
        import numpy as np

        from repro.formats.csr import CSRMatrix

        tiny = CSRMatrix(np.array([0, 2, 3, 4]), np.array([0, 2, 1, 0]),
                         np.array([1.0, 2.0, 3.0, 4.0]), (3, 3))
        runner = ExperimentRunner()
        assert runner.point_key("sparch", tiny) == (
            "805063c15b76540d5755c84ad9c44c4b63b895377bdc3e1653cbd6ccdc00507c")
        assert runner.point_key("mkl", tiny) == (
            "852df5a89c5f80c3a704e8103669cc3b802203b9ab532e2bd8fbc6f179ddc4e2")
        assert ExperimentRunner(engine="scalar").point_key("heap", tiny) == (
            "dfca01229e62386cf65c9ab4e2095a9674378f1a63e4c6c427e80d6ef6eee8c2")
