"""Property tests: CostReport JSON serialisation is lossless.

The experiment runner memoises every point through the
``to_dict → json → from_dict`` round trip, so it must be exact for any
representable report — including zero-traffic and empty-matrix executions.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SpArchConfig
from repro.engines.registry import create_engine, list_engines
from repro.engines.sparch import SpArchEngine
from repro.formats.csr import CSRMatrix
from repro.metrics.report import SCHEMA_VERSION, CostReport

#: Finite, JSON-exact floats (json round-trips any finite double exactly).
finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
nonneg_ints = st.integers(min_value=0, max_value=2**53)
names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"),
                           whitelist_characters="_-"),
    min_size=1, max_size=16)


@st.composite
def cost_reports(draw) -> CostReport:
    return CostReport(
        engine=draw(names),
        kind=draw(st.sampled_from(("simulation", "baseline", "aggregate"))),
        backend=draw(st.sampled_from(("", "scalar", "vectorized"))),
        cycles=draw(nonneg_ints),
        runtime_seconds=draw(finite_floats),
        multiplications=draw(nonneg_ints),
        additions=draw(nonneg_ints),
        bookkeeping_ops=draw(nonneg_ints),
        comparator_ops=draw(nonneg_ints),
        output_nnz=draw(nonneg_ints),
        traffic=draw(st.dictionaries(names, nonneg_ints, max_size=6)),
        energy=draw(st.dictionaries(names, finite_floats, max_size=6)),
        energy_joules=draw(finite_floats),
        clock_hz=draw(finite_floats),
        peak_bandwidth_bytes_per_cycle=draw(finite_floats),
        extras=draw(st.dictionaries(names, finite_floats, max_size=6)),
        detail=draw(st.dictionaries(names, finite_floats, max_size=4)),
    )


class TestRoundTripProperty:
    @given(report=cost_reports())
    @settings(max_examples=120)
    def test_json_round_trip_is_identity(self, report):
        assert CostReport.from_json(report.to_json()) == report

    @given(report=cost_reports())
    @settings(max_examples=60)
    def test_dict_round_trip_through_json_dump(self, report):
        # The runner's exact disk path: to_dict → json.dumps → loads → from_dict.
        replayed = CostReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert replayed == report

    def test_zero_traffic_report_round_trips(self):
        report = CostReport(engine="sparch", traffic={}, energy={})
        replayed = CostReport.from_json(report.to_json())
        assert replayed == report
        assert replayed.dram_bytes == 0
        assert replayed.operational_intensity == 0.0
        assert replayed.bandwidth_utilization == 0.0


class TestIntegerCounterExactness:
    """Satellite regression: op counters round-trip as exact ints.  An
    earlier revision floated them in ``summary()``, which silently loses
    precision past 2**53 — a magnitude long corpus-sweep aggregates reach.
    """

    BIG = 2**53 + 1  # the first integer a float64 cannot represent

    def _big_report(self) -> CostReport:
        return CostReport(engine="sparch", cycles=self.BIG,
                          multiplications=self.BIG, additions=self.BIG + 2,
                          bookkeeping_ops=self.BIG, comparator_ops=self.BIG,
                          output_nnz=self.BIG, traffic={"total": self.BIG})

    def test_summary_keeps_counters_as_exact_ints(self):
        summary = self._big_report().summary()
        for key in ("cycles", "multiplications", "additions", "output_nnz",
                    "dram_bytes"):
            assert isinstance(summary[key], int), key
        assert summary["additions"] == self.BIG + 2  # float would collapse
        assert summary["additions"] != float(self.BIG + 2)

    def test_json_round_trip_is_exact_past_2_53(self):
        report = self._big_report()
        replayed = CostReport.from_json(report.to_json())
        assert replayed == report
        assert replayed.additions == self.BIG + 2
        assert isinstance(replayed.additions, int)
        assert replayed.traffic["total"] == self.BIG

    def test_to_dict_emits_python_ints(self):
        import numpy as np

        # Engines compute closed-form counters in numpy; the serialised
        # payload must still be plain JSON-compatible ints.
        report = CostReport(engine="sparch",
                            multiplications=np.int64(7),
                            traffic={"total": np.int64(12)})
        payload = report.to_dict()
        assert type(payload["multiplications"]) is int
        assert type(payload["traffic"]["total"]) is int
        json.dumps(payload)  # must not raise on numpy scalars

    def test_schema_version_was_bumped_for_the_int_layout(self):
        # v3 introduced the exact-int contract; stale v2 cache entries must
        # rotate (from_dict refuses them) instead of deserialising.
        assert SCHEMA_VERSION >= 3


class TestEngineProducedReports:
    """Round trips of real reports, including the empty-matrix edge case."""

    @pytest.mark.parametrize("engine_name", list_engines())
    def test_empty_matrix_report_round_trips(self, engine_name):
        empty = CSRMatrix.empty((8, 8))
        run = create_engine(engine_name).run(empty)
        report = run.report
        assert report.output_nnz == 0
        assert report.multiplications == 0
        assert CostReport.from_json(report.to_json()) == report

    @pytest.mark.parametrize("engine_name", list_engines())
    def test_real_report_round_trips(self, engine_name, small_matrix):
        report = create_engine(engine_name).run(small_matrix).report
        assert CostReport.from_json(report.to_json()) == report

    def test_simulation_detail_rebuilds_native_stats(self, small_matrix):
        from repro.core.accelerator import SpArch

        config = SpArchConfig()
        native = SpArch(config).multiply(small_matrix, small_matrix).stats
        report = CostReport.from_stats(native, config=config)
        replayed = CostReport.from_json(report.to_json())
        assert replayed.to_stats() == native

    def test_schema_mismatch_is_rejected_not_coerced(self):
        payload = CostReport(engine="sparch").to_dict()
        payload["schema_version"] = SCHEMA_VERSION - 1
        with pytest.raises(ValueError, match="schema mismatch"):
            CostReport.from_dict(payload)

    def test_wrong_kind_conversions_fail_loudly(self):
        report = CostReport(engine="sparch", kind="aggregate")
        with pytest.raises(ValueError):
            report.to_stats()

    def test_sparch_engine_report_rebuilds_stats(self, small_matrix):
        engine = SpArchEngine()
        run = engine.run(small_matrix)
        stats = run.report.to_stats()
        assert stats.multiplications == run.report.multiplications
        assert stats.output_nnz == run.matrix.nnz == run.report.output_nnz
