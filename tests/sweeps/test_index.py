"""The sqlite sidecar index: catch-up on read, the freshness protocol
(high-water mark, head hash), zero-scan queries, and the lazy
index-backed ``ResultStore`` open."""

from __future__ import annotations

import os
import sqlite3
from contextlib import closing

import pytest

from repro.metrics.report import SCHEMA_VERSION
from repro.sweeps.compact import compact_store
from repro.sweeps.driver import summarise_store_file
from repro.sweeps.index import (
    INDEX_VERSION,
    SweepIndex,
    drop_index,
    ensure_index,
    index_path,
    summary_columns,
)
from repro.sweeps.store import (
    ResultStore,
    SweepRecord,
    merge_files,
    merge_files_to,
    render_records,
)
from repro.sweeps.synth import synthetic_record, write_synthetic_store


def build_store(path, cells, **kwargs):
    store = ResultStore(path, **kwargs)
    for position in range(cells):
        store.append(synthetic_record(position))
    return store


class TestIncrementalMaintenance:
    def test_appends_leave_the_sidecar_untouched(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = build_store(path, 3)
        assert store.index.count() == 3  # caught up by the query

        def sidecar_state():
            # Read through a separate connection, as another process would.
            with closing(sqlite3.connect(index_path(path))) as conn:
                rows = list(conn.execute(
                    "SELECT * FROM cells ORDER BY rowid"))
                hwm = conn.execute(
                    "SELECT value FROM meta WHERE key = 'hwm'").fetchone()
            return rows, hwm

        before = sidecar_state()
        for position in range(3, 6):
            store.append(synthetic_record(position))
        assert sidecar_state() == before
        store.close()

    def test_the_next_query_catches_up_with_appends(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = build_store(path, 7)
        assert store.index is not None
        assert store.index.count() == 7
        assert store.index.high_water == os.path.getsize(path)
        store.close()

    def test_incremental_rows_equal_a_from_scratch_rebuild(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = build_store(path, 9)
        incremental = store.index.dump_rows()
        store.index.rebuild()
        assert store.index.dump_rows() == incremental
        store.close()

    def test_catch_up_ingests_only_the_tail(self, tmp_path, monkeypatch):
        path = tmp_path / "store.jsonl"
        store = build_store(path, 4)
        assert store.index.count() == 4
        indexed_to = store.index.high_water
        store.close()
        # Another writer extends the file...
        no_index = ResultStore(path, index=False)
        no_index.append(synthetic_record(4))
        # ...and the next open catches up from the old high-water mark.
        starts = []
        ingest = SweepIndex._ingest_locked

        def spy(self, start, size):
            starts.append(start)
            return ingest(self, start, size)

        monkeypatch.setattr(SweepIndex, "_ingest_locked", spy)
        store = ResultStore(path)
        assert len(store) == 5
        assert starts == [indexed_to]
        assert store.index.count() == 5
        assert store.index.high_water == os.path.getsize(path)
        store.close()

    def test_concurrent_writer_is_ingested_by_the_next_query(self,
                                                             tmp_path):
        path = tmp_path / "store.jsonl"
        indexed = build_store(path, 2)
        other = ResultStore(path, index=False)
        other.append(synthetic_record(2))  # another writer's record
        indexed.append(synthetic_record(3))
        assert indexed.index.count() == 4
        assert {entry.cell_index
                for entry in indexed.index.cell_entries()} == {0, 1, 2, 3}
        indexed.close()

    def test_torn_tail_stays_below_the_high_water_mark(self, tmp_path):
        path = tmp_path / "store.jsonl"
        build_store(path, 3).close()
        fragment = synthetic_record(3).to_line()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(fragment[:len(fragment) // 2])
        index = ensure_index(path)
        assert index.count() == 3
        assert index.high_water < os.path.getsize(path)
        index.close()

    def test_unterminated_valid_final_line_is_indexed(self, tmp_path):
        path = tmp_path / "store.jsonl"
        build_store(path, 2).close()
        data = path.read_bytes()
        path.write_bytes(data[:-1])  # strip only the final newline
        drop_index(path)
        store = ResultStore(path)
        assert len(store) == 2
        assert store.index.high_water == os.path.getsize(path)
        store.close()


#: The cells table of a version-1 sidecar, with its per-category
#: ``traffic`` column and the records' byte ranges.
CELLS_V1 = """
CREATE TABLE cells (
    sweep_id TEXT NOT NULL, scenario TEXT NOT NULL, engine TEXT NOT NULL,
    config_label TEXT NOT NULL, cell_index INTEGER NOT NULL,
    key TEXT NOT NULL, report_key TEXT NOT NULL, offset INTEGER NOT NULL,
    length INTEGER NOT NULL, status TEXT NOT NULL DEFAULT 'done',
    cycles INTEGER NOT NULL, runtime_seconds REAL NOT NULL,
    gflops REAL NOT NULL, log_gflops REAL NOT NULL,
    dram_bytes INTEGER NOT NULL, traffic TEXT NOT NULL,
    energy_joules REAL NOT NULL, output_nnz INTEGER NOT NULL,
    multiplications INTEGER NOT NULL, additions INTEGER NOT NULL,
    UNIQUE (sweep_id, scenario, engine, config_label)
)
"""


class TestFreshnessProtocol:
    def test_a_version_1_sidecar_is_rebuilt(self, tmp_path):
        path = tmp_path / "store.jsonl"
        build_store(path, 5).close()
        with closing(sqlite3.connect(index_path(path))) as conn, conn:
            conn.execute("DROP TABLE cells")
            conn.execute(CELLS_V1)
            conn.execute("UPDATE meta SET value = '1' "
                         "WHERE key = 'index_version'")
        index = ensure_index(path)
        assert index.count() == 5
        assert (index.summarise(title="T").render()
                == summarise_store_file(path, title="T").render())
        index.close()
        with closing(sqlite3.connect(index_path(path))) as conn:
            columns = [row[1] for row in conn.execute(
                "PRAGMA table_info(cells)")]
            assert not {"traffic", "offset", "length"} & set(columns)
            assert conn.execute(
                "SELECT value FROM meta WHERE key = 'index_version'"
            ).fetchone() == (str(INDEX_VERSION),)

    def test_truncated_store_triggers_a_rebuild(self, tmp_path):
        path = tmp_path / "store.jsonl"
        build_store(path, 5).close()
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2]))
        store = ResultStore(path)
        assert len(store) == 2
        assert [record.cell_index for record in store.records] == [0, 1]
        store.close()

    def test_rewritten_head_triggers_a_rebuild(self, tmp_path):
        # Same size, same line count — only the head hash can tell the
        # file was rewritten underneath the index.
        path = tmp_path / "store.jsonl"
        build_store(path, 6).close()
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(reversed(lines)))
        store = ResultStore(path)
        assert [record.cell_index for record in store.records] == [
            5, 4, 3, 2, 1, 0]
        store.close()

    def test_dropping_the_sidecar_is_always_recoverable(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = build_store(path, 6)
        reference = store.records
        store.close()
        drop_index(path)
        assert not os.path.exists(index_path(path))
        reopened = ResultStore(path)
        assert reopened.records == reference
        assert reopened.index.count() == 6
        reopened.close()

    def test_store_survives_an_unusable_sidecar_location(self, tmp_path):
        path = tmp_path / "store.jsonl"
        build_store(path, 3, index=False).close()
        os.mkdir(index_path(path))  # block sqlite from creating the db
        store = ResultStore(path)
        assert store.index is None  # silently degraded
        assert len(store) == 3
        store.append(synthetic_record(3))
        assert len(ResultStore(path, index=False)) == 4
        store.close()


class TestLazyStoreOpen:
    def test_lazy_open_defers_hydration(self, tmp_path):
        path = tmp_path / "store.jsonl"
        build_store(path, 5).close()
        store = ResultStore(path)
        assert store._records is None  # nothing parsed yet
        assert len(store) == 5
        assert len(store.done_cells) == 5
        assert store._records is None  # resume surface stays lazy
        store.close()

    def test_appends_after_a_lazy_open_are_hydrated(self, tmp_path):
        path = tmp_path / "store.jsonl"
        build_store(path, 3).close()
        store = ResultStore(path)
        assert store._records is None
        for position in (3, 4):
            store.append(synthetic_record(position))
        assert [record.cell_index for record in store.records] == [
            0, 1, 2, 3, 4]
        assert len(store.reports()) == 5
        assert store.index is not None
        store.close()

    def test_hydrated_records_equal_the_eager_scan(self, tmp_path):
        path = tmp_path / "store.jsonl"
        build_store(path, 8).close()
        lazy, eager = ResultStore(path), ResultStore(path, index=False)
        assert lazy.records == eager.records
        assert lazy.reports().keys() == eager.reports().keys()
        lazy.close()

    def test_cell_entries_agree_between_lazy_and_eager(self, tmp_path):
        path = tmp_path / "store.jsonl"
        build_store(path, 6).close()
        lazy, eager = ResultStore(path), ResultStore(path, index=False)
        assert lazy.cell_entries() == eager.cell_entries()
        entry = lazy.cell_entries()[0]
        assert entry.cell == ("synth-sweep", "synth/000000", "sparch",
                              "table1")
        assert entry.report_key == "synth/000000|sparch|table1"
        lazy.close()

    def test_every_reader_refuses_a_conflicting_store(self, tmp_path):
        path = tmp_path / "store.jsonl"
        record = synthetic_record(0)
        conflicting = SweepRecord(
            sweep_id=record.sweep_id, cell_index=record.cell_index,
            scenario=record.scenario, engine=record.engine,
            config_label=record.config_label, key="other-fingerprint",
            report=record.report)
        path.write_text(record.to_line())
        lazy = ResultStore(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(conflicting.to_line())  # another writer's line
        with pytest.raises(ValueError, match="conflicting records"):
            lazy.records
        lazy.close()
        cell = "synth/000000|sparch|table1"
        with pytest.raises(ValueError, match="conflicting records"):
            ResultStore(path)
        with pytest.raises(ValueError, match="conflicting records"):
            ResultStore(path, index=False)
        with pytest.raises(ValueError, match="conflicting records"):
            ensure_index(path)
        with pytest.raises(ValueError, match=f"conflicting records .*{cell}"):
            summarise_store_file(path)
        with pytest.raises(ValueError, match="conflicting records"):
            merge_files_to([path], tmp_path / "merged.jsonl")
        with pytest.raises(ValueError, match="conflicting records"):
            merge_files([path])

    def test_every_reader_skips_a_non_utf8_line(self, tmp_path):
        # One newline-terminated line of bytes that are not UTF-8 (a bad
        # disk block, a foreign writer) is an invalid line to every
        # reader, like any other line that does not parse.
        path = tmp_path / "store.jsonl"
        records = [synthetic_record(position) for position in range(4)]
        clean = render_records(records).encode("utf-8")
        cut = len(render_records(records[:2]))
        path.write_bytes(clean[:cut] + b"\xff\xfe not utf-8 \x80\n"
                         + clean[cut:])
        lazy = ResultStore(path)
        assert lazy.records == ResultStore(path, index=False).records
        assert lazy.records == records
        lazy.close()
        index = ensure_index(path)
        assert index.count() == 4
        assert (index.summarise(title="T").render()
                == summarise_store_file(path, title="T").render())
        index.close()
        merged = tmp_path / "merged.jsonl"
        assert merge_files_to([path], merged) == 4
        assert merged.read_bytes() == clean
        stats = compact_store(path, fsync=False)
        assert (stats.records, stats.dropped_duplicates,
                stats.dropped_invalid) == (4, 0, 1)
        assert path.read_bytes() == clean

    def test_hydration_keeps_only_this_stores_cells(self, tmp_path):
        # Both opens see the 3 cells at open plus their own append, not
        # what another writer appended meanwhile.
        path = tmp_path / "store.jsonl"
        build_store(path, 3).close()
        lazy, eager = ResultStore(path), ResultStore(path, index=False)
        ResultStore(path, index=False).append(synthetic_record(3))
        lazy.append(synthetic_record(4))
        eager.append(synthetic_record(5))
        for store, own in ((lazy, 4), (eager, 5)):
            assert len(store) == 4
            assert [record.cell_index for record in store.records] == [
                0, 1, 2, own]
            assert len(store.done_keys) == len(store.cell_entries()) == 4
        assert lazy.index is not None
        lazy.close()

    def test_stale_schema_lines_rotate_out(self, tmp_path):
        path = tmp_path / "store.jsonl"
        good = synthetic_record(0)
        stale = dict(good.report, schema_version=SCHEMA_VERSION - 1)
        stale_record = SweepRecord(
            sweep_id=good.sweep_id, cell_index=1, scenario="synth/000000",
            engine="mkl", config_label="-", key="stale",
            report=stale)
        path.write_text(good.to_line() + stale_record.to_line())
        store = ResultStore(path)
        assert len(store) == 1  # the stale line reads as not-done
        store.close()


class TestZeroScanQueries:
    @pytest.mark.parametrize("dirty", [False, True],
                             ids=["clean", "dirty"])
    def test_summarise_matches_the_streamed_scan(self, tmp_path, dirty):
        # A dirty store holds superseded duplicates of every 100th cell:
        # both paths keep each cell's first record.
        path = tmp_path / "store.jsonl"
        write_synthetic_store(path, 400, dirty=dirty)
        index = ensure_index(path)
        assert (index.summarise(title="T").render()
                == summarise_store_file(path, title="T").render())
        assert (index.summarise(sweep_id="synth-sweep", title="T").render()
                == summarise_store_file(path, sweep_id="synth-sweep",
                                        title="T").render())
        index.close()

    def test_streamed_summary_of_a_missing_file_raises(self, tmp_path):
        # Unlike a store open, a summary has no "fresh store" reading.
        with pytest.raises(FileNotFoundError):
            summarise_store_file(tmp_path / "absent.jsonl")

    def test_summarise_refuses_multi_sweep_without_a_filter(self,
                                                            tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append(synthetic_record(0, sweep_id="sweep-a"))
        store.append(synthetic_record(1, sweep_id="sweep-b"))
        with pytest.raises(ValueError, match="span multiple sweeps"):
            store.index.summarise()
        assert store.index.summarise(sweep_id="sweep-a").rows
        store.close()

    def test_query_cells_filters_sorts_and_limits(self, tmp_path):
        path = tmp_path / "store.jsonl"
        write_synthetic_store(path, 200)
        index = ensure_index(path)
        rows = index.query_cells(where={"engine": "sparch",
                                        "config_label": "table1"},
                                 sort="gflops", limit=5)
        assert len(rows) == 5
        assert all(row["engine"] == "sparch" for row in rows)
        gflops = [row["gflops"] for row in rows]
        assert gflops == sorted(gflops, reverse=True)
        # the top-1 really is the global maximum for that column
        everything = index.query_cells(where={"engine": "sparch",
                                              "config_label": "table1"},
                                       sort="gflops")
        assert rows[0] == everything[0]
        assert len(everything) == 50
        index.close()

    def test_query_cells_rejects_unknown_columns(self, tmp_path):
        path = tmp_path / "store.jsonl"
        write_synthetic_store(path, 8)
        index = ensure_index(path)
        with pytest.raises(ValueError, match="unknown sort metric"):
            index.query_cells(sort="nope")
        with pytest.raises(ValueError, match="unknown filter column"):
            index.query_cells(where={"nope": "x"})
        with pytest.raises(ValueError, match="non-negative"):
            index.query_cells(limit=-1)
        index.close()

    def test_sweep_counts(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        for position in range(3):
            store.append(synthetic_record(position, sweep_id="sweep-a"))
        store.append(synthetic_record(3, sweep_id="sweep-b"))
        assert store.index.sweep_counts() == {"sweep-a": 3, "sweep-b": 1}
        store.close()


class TestSummaryColumns:
    def test_mirrors_the_cost_report_formulas(self):
        record = synthetic_record(5)
        report = record.cost_report()
        columns = summary_columns(record.report)
        assert columns["gflops"] == report.gflops
        assert columns["dram_bytes"] == report.dram_bytes
        assert columns["cycles"] == report.cycles
        assert columns["energy_joules"] == report.energy_joules

    def test_tolerates_arbitrary_report_payloads(self):
        # Concurrent-append stress records carry filler payloads that are
        # not CostReports; indexing must not choke on them.
        columns = summary_columns({"schema_version": SCHEMA_VERSION,
                                   "filler": "x" * 64})
        assert columns["gflops"] == 0.0
        assert columns["dram_bytes"] == 0
        assert columns["runtime_seconds"] == 0.0
