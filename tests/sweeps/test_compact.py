"""Segment compaction: superseded duplicates and torn tails rewritten
away atomically, with the central guarantee that

    canonical_merge(compacted store)  ==  canonical_merge(original store)

byte for byte — including for every store a chaos-scripted fabric run
leaves behind (workers killed mid-lease, torn appends, coordinator
restarts)."""

from __future__ import annotations

import os
import shutil

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.fabric import SCHEDULES, run_chaos
from repro.sweeps.compact import compact_store
from repro.sweeps.driver import run_sweep
from repro.sweeps.index import SweepIndex
from repro.sweeps.registry import get_sweep
from repro.sweeps.spec import enumerate_cells
from repro.sweeps.store import (
    ResultStore,
    SweepRecord,
    merge_records,
    render_records,
)
from repro.sweeps.synth import synthetic_record, write_synthetic_store

RUNNER = ExperimentRunner()
SMOKE = get_sweep("smoke")


def merged_bytes(path):
    return render_records(merge_records(
        list(ResultStore(path, index=False).records)))


class TestCompaction:
    def test_drops_duplicates_and_torn_tail(self, tmp_path):
        path = tmp_path / "store.jsonl"
        write_synthetic_store(path, 500, dirty=True)
        before = merged_bytes(path)
        stats = compact_store(path, fsync=False)
        assert stats.dropped_duplicates == 5  # one per 100 cells
        assert stats.dropped_invalid == 1  # the torn fragment
        assert stats.records == 500
        assert stats.bytes_after < stats.bytes_before
        assert stats.bytes_after == os.path.getsize(path)
        assert merged_bytes(path) == before

    def test_clean_store_compacts_to_itself(self, tmp_path):
        path = tmp_path / "store.jsonl"
        write_synthetic_store(path, 50)
        before = path.read_bytes()
        stats = compact_store(path, fsync=False)
        assert (stats.dropped_duplicates, stats.dropped_invalid) == (0, 0)
        assert path.read_bytes() == before

    def test_is_idempotent_and_rebuilds_the_index(self, tmp_path):
        path = tmp_path / "store.jsonl"
        write_synthetic_store(path, 120, dirty=True)
        compact_store(path, fsync=False)
        after_first = path.read_bytes()
        second = compact_store(path, fsync=False)
        assert path.read_bytes() == after_first
        assert (second.dropped_duplicates, second.dropped_invalid) == (0, 0)
        index = SweepIndex(path)
        # high_water reads the sidecar as compaction left it.
        assert index.high_water == os.path.getsize(path)
        assert index.count() == 120
        index.close()

    def test_conflicting_store_is_refused_and_untouched(self, tmp_path):
        path = tmp_path / "store.jsonl"
        record = synthetic_record(0)
        conflicting = SweepRecord(
            sweep_id=record.sweep_id, cell_index=record.cell_index,
            scenario=record.scenario, engine=record.engine,
            config_label=record.config_label, key="other-fingerprint",
            report=record.report)
        path.write_text(record.to_line() + conflicting.to_line())
        before = path.read_bytes()
        with pytest.raises(ValueError, match="conflicting records"):
            compact_store(path, fsync=False)
        assert path.read_bytes() == before
        assert not os.path.exists(f"{path}.compact.tmp")

    def test_missing_store_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="result store not"):
            compact_store(tmp_path / "absent.jsonl")

    def test_render_mentions_reclaimed_bytes(self, tmp_path):
        path = tmp_path / "store.jsonl"
        write_synthetic_store(path, 200, dirty=True)
        line = compact_store(path, fsync=False).render()
        assert "200 records" in line
        assert "duplicate" in line and "invalid" in line


class TestChaosByteParity:
    """The acceptance property: for every fault schedule, compacting the
    surviving store changes nothing about its canonical merge."""

    @pytest.fixture(scope="class")
    def reference_bytes(self):
        _, store = run_sweep(SMOKE, runner=RUNNER)
        return render_records(merge_records(list(store.records)))

    @pytest.mark.parametrize("schedule", SCHEDULES,
                             ids=[s.name for s in SCHEDULES])
    def test_compaction_preserves_merge_bytes(self, schedule,
                                              reference_bytes, tmp_path):
        store_path = tmp_path / "store.jsonl"
        run_chaos(SMOKE, schedule, workers=2, runner=RUNNER,
                  store_path=store_path)
        uncompacted = merged_bytes(store_path)
        assert uncompacted == reference_bytes
        compact_store(store_path, fsync=False)
        assert merged_bytes(store_path) == reference_bytes

    def test_resume_after_compaction_replays_every_cell(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        run_chaos(SMOKE, SCHEDULES[0], workers=2, runner=RUNNER,
                  store_path=store_path)
        compact_store(store_path, fsync=False)
        summary, _ = run_sweep(SMOKE, runner=RUNNER, store=store_path)
        assert summary.executed == 0
        assert summary.replayed == len(enumerate_cells(SMOKE))

    def test_copy_then_compact_leaves_the_original_alone(self, tmp_path):
        source = tmp_path / "store.jsonl"
        run_chaos(SMOKE, SCHEDULES[-1], workers=2, runner=RUNNER,
                  store_path=source)
        copy = tmp_path / "copy.jsonl"
        shutil.copyfile(source, copy)
        compact_store(copy, fsync=False)
        assert merged_bytes(copy) == merged_bytes(source)
