"""ReportStore: the shared two-tier report cache and its coalescing."""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve.store import ReportStore


def payload_for(key: str) -> dict:
    return {"key": key, "cycles": 42}


class TestTiers:
    def test_memory_roundtrip_without_disk(self):
        store = ReportStore()
        assert store.load("k") is None
        store.store("k", {"a": 1})
        assert store.load("k") == {"a": 1}
        assert store.cache_dir is None

    def test_disk_tier_survives_a_fresh_store(self, tmp_path):
        first = ReportStore(cache_dir=tmp_path)
        first.store("k", {"a": 1})
        fresh = ReportStore(cache_dir=tmp_path)
        assert fresh.load("k") == {"a": 1}

    def test_disk_layout_is_one_file_per_key(self, tmp_path):
        store = ReportStore(cache_dir=tmp_path / "cache")
        store.store("k", {"a": 1})
        assert [path.name for path in (tmp_path / "cache").iterdir()] == [
            "k.json"]

    def test_corrupt_disk_entry_reads_as_a_miss(self, tmp_path):
        store = ReportStore(cache_dir=tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert store.load("bad") is None

    def test_disk_hit_promotes_into_memory(self, tmp_path):
        writer = ReportStore(cache_dir=tmp_path)
        writer.store("k", {"a": 1})
        reader = ReportStore(cache_dir=tmp_path)
        reader.load("k")
        (tmp_path / "k.json").unlink()
        assert reader.load("k") == {"a": 1}  # memory tier now


class TestGetOrCompute:
    def test_computes_then_hits(self):
        store = ReportStore()
        calls = []

        def compute():
            calls.append(1)
            return {"a": 1}

        assert store.get_or_compute("k", compute) == (
            {"a": 1}, "computed")
        assert store.get_or_compute("k", compute) == ({"a": 1}, "hit")
        assert len(calls) == 1
        assert store.hits == 1 and store.misses == 1

    def test_disk_entry_counts_as_a_hit(self, tmp_path):
        ReportStore(cache_dir=tmp_path).store("k", {"a": 1})
        store = ReportStore(cache_dir=tmp_path)
        payload, outcome = store.get_or_compute(
            "k", lambda: pytest.fail("must not compute"))
        assert (payload, outcome) == ({"a": 1}, "hit")

    def test_error_propagates_and_is_never_cached(self):
        store = ReportStore()

        def boom():
            raise RuntimeError("engine crashed")

        with pytest.raises(RuntimeError, match="engine crashed"):
            store.get_or_compute("k", boom)
        # The key is not poisoned: the next caller computes normally.
        assert store.get_or_compute("k", lambda: {"a": 2}) == (
            {"a": 2}, "computed")
        assert store.stats()["inflight"] == 0

    def test_n_concurrent_identical_requests_compute_once(self):
        store = ReportStore()
        threads = 16
        barrier = threading.Barrier(threads)
        release = threading.Event()
        executions = []

        def compute():
            executions.append(threading.get_ident())
            assert release.wait(10)
            return {"a": 1}

        def caller():
            barrier.wait(10)
            return store.get_or_compute("k", compute)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(caller) for _ in range(threads)]
            # Let every thread reach the store before the leader finishes.
            while store.stats()["inflight"] == 0:
                pass
            release.set()
            results = [future.result(timeout=30) for future in futures]

        assert len(executions) == 1
        assert all(payload == {"a": 1} for payload, _ in results)
        outcomes = [outcome for _, outcome in results]
        assert outcomes.count("computed") == 1
        assert set(outcomes) <= {"computed", "coalesced", "hit"}
        stats = store.stats()
        assert stats["misses"] == 1
        assert stats["hits"] + stats["coalesced"] == threads - 1
        assert stats["coalesced_wait_seconds"] >= 0.0

    def test_waiters_retry_when_the_leader_fails(self):
        store = ReportStore()
        started = threading.Event()
        fail_leader = threading.Event()
        attempts = []

        def compute():
            attempts.append(1)
            started.set()
            if len(attempts) == 1:
                assert fail_leader.wait(10)
                raise RuntimeError("first leader dies")
            return {"a": 1}

        def follower():
            assert started.wait(10)
            return store.get_or_compute("k", compute)

        with ThreadPoolExecutor(max_workers=2) as pool:
            leader = pool.submit(store.get_or_compute, "k", compute)
            waiter = pool.submit(follower)
            while store.stats()["inflight"] == 0:
                pass
            fail_leader.set()
            with pytest.raises(RuntimeError, match="first leader dies"):
                leader.result(timeout=30)
            # The parked waiter retries and becomes the next leader.
            assert waiter.result(timeout=30) == ({"a": 1}, "computed")
        assert len(attempts) == 2


class TestAccounting:
    def test_record_batch_feeds_the_same_counters(self):
        store = ReportStore()
        store.record_batch(hits=3, misses=2, compute_seconds=1.5)
        stats = store.stats()
        assert stats["hits"] == 3 and stats["misses"] == 2
        assert stats["compute_seconds"] == 1.5
        assert stats["hit_rate"] == pytest.approx(0.6)

    def test_stats_snapshot_shape(self):
        stats = ReportStore().stats()
        assert set(stats) == {"hits", "misses", "coalesced", "hit_rate",
                              "compute_seconds", "coalesced_wait_seconds",
                              "inflight", "entries"}
        assert stats["hit_rate"] == 0.0  # no lookups yet

    def test_thread_hammer_counters_stay_consistent(self):
        store = ReportStore()
        keys = [f"k{index}" for index in range(8)]
        calls_per_key = 25

        def caller(key):
            return store.get_or_compute(key, lambda: payload_for(key))

        with ThreadPoolExecutor(max_workers=16) as pool:
            futures = [pool.submit(caller, key)
                       for key in keys for _ in range(calls_per_key)]
            results = [future.result(timeout=60) for future in futures]

        for (payload, _), key in zip(
                results, [key for key in keys for _ in range(calls_per_key)]):
            assert payload == payload_for(key)
        stats = store.stats()
        total = len(keys) * calls_per_key
        assert stats["misses"] == len(keys)  # each key computed exactly once
        assert stats["hits"] + stats["coalesced"] == total - len(keys)
        assert stats["entries"] == len(keys)
        assert stats["inflight"] == 0

    def test_disk_write_is_atomic_no_partial_files_remain(self, tmp_path):
        store = ReportStore(cache_dir=tmp_path)
        store.store("k", {"a": 1})
        leftovers = [path for path in tmp_path.iterdir()
                     if path.suffix != ".json"]
        assert leftovers == []
        assert json.loads((tmp_path / "k.json").read_text()) == {
            "a": 1}
