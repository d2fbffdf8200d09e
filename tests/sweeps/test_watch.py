"""The ``sweeps watch`` progress view: incremental reads, torn tails,
sidecar integration."""

from __future__ import annotations

import dataclasses
import json

from repro.experiments.runner import ExperimentRunner
from repro.sweeps.compact import compact_store
from repro.sweeps.driver import run_sweep
from repro.sweeps.registry import get_sweep
from repro.sweeps.store import ResultStore
from repro.sweeps.watch import (
    StoreWatcher,
    _RateWindow,
    observe,
    watch_store,
)

RUNNER = ExperimentRunner()
SMOKE = get_sweep("smoke")


def smoke_records():
    _, store = run_sweep(SMOKE, runner=RUNNER)
    return list(store.records)


class TestStoreWatcher:
    def test_picks_up_appends_incrementally(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        watcher = StoreWatcher(path)
        records = smoke_records()
        store.append(records[0])
        assert len(watcher.poll()) == 1
        assert watcher.poll() == []  # nothing new
        for record in records[1:3]:
            store.append(record)
        assert len(watcher.poll()) == 2
        assert watcher.records_seen == 3

    def test_missing_file_reads_as_empty(self, tmp_path):
        watcher = StoreWatcher(tmp_path / "absent.jsonl")
        assert watcher.poll() == []

    def test_unterminated_tail_waits_for_its_newline(self, tmp_path):
        path = tmp_path / "store.jsonl"
        records = smoke_records()
        line = records[0].to_line()
        path.write_text(line + records[1].to_line()[:40])  # torn append
        watcher = StoreWatcher(path)
        assert len(watcher.poll()) == 1  # only the complete line
        with open(path, "a") as handle:  # the append finishes
            handle.write(records[1].to_line()[40:])
        assert len(watcher.poll()) == 1

    def test_truncation_resets_without_double_counting(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        records = smoke_records()
        for record in records[:3]:
            store.append(record)
        watcher = StoreWatcher(path)
        assert len(watcher.poll()) == 3
        # rotation: rewritten with the same first two records
        path.write_text("".join(record.to_line()
                                for record in records[:2]))
        assert watcher.poll() == []  # re-read, but all seen before
        assert watcher.records_seen == 3

    def test_compaction_does_not_double_count(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        records = smoke_records()
        for record in records[:4]:
            store.append(record)
        watcher = StoreWatcher(path)
        assert len(watcher.poll()) == 4
        compact_store(path, fsync=False)  # same bytes, a new file
        assert watcher.poll() == []
        assert watcher.records_seen == 4
        ResultStore(path).append(records[4])
        assert [record.cell_index
                for record in watcher.poll()] == [records[4].cell_index]

    def test_compaction_mid_watch_loses_no_record(self, tmp_path):
        # Compaction drops a duplicate *before* the watcher's offset and
        # the store stays longer than that offset: every later line moves,
        # so tailing on from the old offset would start mid-line.
        path = tmp_path / "store.jsonl"
        records = smoke_records()
        lines = [record.to_line() for record in records]
        path.write_text(lines[0] + lines[0] + lines[1])
        watcher = StoreWatcher(path)
        assert len(watcher.poll()) == 2
        with open(path, "a") as handle:
            handle.write("".join(lines[2:]))
        compact_store(path, fsync=False)
        assert len(watcher.poll()) == len(records) - 2
        assert watcher.records_seen == len(records)


class TestObserve:
    def test_registry_supplies_the_total(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        for record in smoke_records()[:2]:
            store.append(record)
        view = observe(path, StoreWatcher(path), _RateWindow(), set(),
                       now=0.0)
        assert (view.done, view.total) == (2, 6)
        assert not view.finished
        assert "2/6 cells done" in view.render()

    def test_full_store_reads_finished(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        for record in smoke_records():
            store.append(record)
        view = observe(path, StoreWatcher(path), _RateWindow(), set(),
                       now=0.0)
        assert view.finished
        assert "finished" in view.render()

    def test_rate_and_eta_come_from_the_window(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        records = smoke_records()
        watcher = StoreWatcher(path)
        window = _RateWindow()
        sweeps: set[str] = set()
        for record in records[:2]:
            store.append(record)
        observe(path, watcher, window, sweeps, now=0.0)
        for record in records[2:4]:
            store.append(record)
        view = observe(path, watcher, window, sweeps, now=2.0)
        assert view.rate == 1.0  # 2 records / 2 seconds
        assert view.eta_seconds == 2.0  # 2 cells left at 1/s
        assert "1.00 rows/s" in view.render()

    def test_fabric_sidecar_supplies_pending_and_quarantine(
            self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        records = smoke_records()
        for record in records[:5]:
            store.append(record)
        sidecar = {
            "total_cells": 6,
            "finished": True,
            "counts": {"pending": 0, "leased": 0, "done": 5,
                       "quarantined": 1},
            "stats": {"failures": 3},
            "quarantined": [{"cell_index": 5, "attempts": 3,
                             "error": "boom"}],
        }
        (tmp_path / "store.jsonl.fabric.json").write_text(
            json.dumps(sidecar))
        view = observe(path, StoreWatcher(path), _RateWindow(), set(),
                       now=0.0)
        assert view.finished
        assert view.quarantined == 1
        assert view.failed == 3
        assert "1 quarantined" in view.render()


class TestWatchLoop:
    def test_iterations_bound_an_unfinished_watch(self, tmp_path,
                                                  capsys):
        path = tmp_path / "store.jsonl"
        ResultStore(path).append(smoke_records()[0])
        view = watch_store(path, interval=0.01, iterations=2)
        assert not view.finished
        assert capsys.readouterr().out.count("[watch]") == 2

    def test_finished_watch_reports_quarantine_details(self, tmp_path,
                                                       capsys):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        for record in smoke_records():
            store.append(record)
        view = watch_store(path, interval=0.01, iterations=5)
        assert view.finished
        assert "finished" in capsys.readouterr().out

    def test_cli_subcommand_runs(self, tmp_path, capsys):
        from repro.sweeps.__main__ import main as sweeps_main

        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        for record in smoke_records():
            store.append(record)
        assert sweeps_main(["watch", str(path), "--iterations", "1",
                            "--interval", "0.01"]) == 0
        assert "6/6 cells done" in capsys.readouterr().out
