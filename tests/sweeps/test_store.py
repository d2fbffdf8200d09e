"""ResultStore: append-only persistence, stale rotation, canonical merge."""

from __future__ import annotations

import json

import pytest

from repro.metrics.report import SCHEMA_VERSION, CostReport
import dataclasses

from repro.sweeps.store import (
    STORE_VERSION,
    ResultStore,
    StoreScan,
    SweepRecord,
    merge_files,
    merge_files_to,
    merge_records,
    parse_line,
    records_to_reports,
    render_records,
    write_records,
)


def make_record(index: int, *, key: str | None = None,
                scenario: str | None = None, engine: str = "sparch",
                config_label: str = "table1") -> SweepRecord:
    # One scenario per index by default, mirroring real grids (cell
    # coordinates and canonical indices are one-to-one per spec).
    if scenario is None:
        scenario = f"s{index}"
    report = CostReport(engine=engine, kind="simulation", cycles=index + 1,
                        multiplications=10 * (index + 1))
    return SweepRecord(sweep_id="test", cell_index=index, scenario=scenario,
                       engine=engine, config_label=config_label,
                       key=key or f"key-{index}", report=report.to_dict())


class TestAppendAndLoad:
    def test_round_trip_through_the_file(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        for index in range(3):
            store.append(make_record(index))
        reopened = ResultStore(path)
        assert len(reopened) == 3
        assert reopened.done_keys == {"key-0", "key-1", "key-2"}
        assert reopened.records == store.records
        assert reopened.records[0].cost_report().cycles == 1

    def test_memory_only_store_has_no_path(self):
        store = ResultStore(None)
        store.append(make_record(0))
        assert store.path is None and len(store) == 1

    def test_duplicate_cells_append_once(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.append(make_record(0))
        store.append(make_record(0))
        assert len(store) == 1
        assert len(ResultStore(store.path)) == 1

    def test_coinciding_cells_each_keep_their_record(self, tmp_path):
        # Two grid cells may share one fingerprint (configs that collapse
        # to the same effective design); the grid must not lose a point.
        store = ResultStore(tmp_path / "store.jsonl")
        store.append(make_record(0, key="shared", scenario="s",
                                 config_label="line:64x48"))
        store.append(make_record(1, key="shared", scenario="s",
                                 config_label="shape:1024x48"))
        assert len(store) == 2
        assert len(ResultStore(store.path)) == 2
        assert store.done_keys == {"shared"}

    def test_contains_is_by_key(self):
        store = ResultStore()
        store.append(make_record(7))
        assert "key-7" in store and "key-8" not in store
        assert ("test", "s7", "sparch", "table1") in store.done_cells


class TestRotationAndCorruption:
    """A resumable store must treat anything it cannot trust as *not
    done* — a torn line from a kill, another layout, a stale report."""

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append(make_record(0))
        store.append(make_record(1))
        with open(path, "a") as handle:  # a kill mid-append
            handle.write(make_record(2).to_line()[:25])
        assert ResultStore(path).done_keys == {"key-0", "key-1"}

    def test_append_after_torn_final_line_does_not_glue(self, tmp_path):
        """Regression: the first append after a torn tail must terminate
        the fragment, not concatenate onto it — gluing would corrupt the
        recomputed record too and the reloaded store would miss a cell."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append(make_record(0))
        with open(path, "a") as handle:  # a kill mid-append
            handle.write(make_record(1).to_line()[:25])
        resumed = ResultStore(path)  # sees only record 0
        resumed.append(make_record(1))
        resumed.append(make_record(2))
        reloaded = ResultStore(path)
        assert reloaded.done_keys == {"key-0", "key-1", "key-2"}
        assert reloaded.records == resumed.records

    def test_stale_report_schema_rotates(self, tmp_path):
        path = tmp_path / "store.jsonl"
        record = make_record(0)
        stale = dict(record.report, schema_version=SCHEMA_VERSION - 1)
        path.write_text(json.dumps({
            "store_version": STORE_VERSION, "sweep_id": "test",
            "cell_index": 0, "scenario": "s0", "engine": "sparch",
            "config_label": "table1", "key": "key-0", "report": stale,
        }) + "\n" + record.to_line())
        # The stale line is invisible; the fresh one for the same cell wins.
        assert ResultStore(path).done_keys == {"key-0"}
        assert ResultStore(path).records[0].report["schema_version"] == \
            SCHEMA_VERSION

    def test_other_store_layout_rotates(self):
        line = make_record(0).to_line()
        payload = json.loads(line)
        payload["store_version"] = STORE_VERSION + 1
        assert parse_line(json.dumps(payload)) is None

    @pytest.mark.parametrize("line", ["", "   ", "not json", "[1, 2]",
                                      '{"store_version": 1}'])
    def test_garbage_lines_are_not_done(self, line):
        assert parse_line(line) is None


class TestCanonicalMerge:
    def test_merge_sorts_by_cell_index(self):
        records = [make_record(2), make_record(0), make_record(1)]
        assert [r.cell_index for r in merge_records(records)] == [0, 1, 2]

    def test_merge_keeps_distinct_cells_sharing_a_fingerprint(self):
        # Coinciding grid cells (one computation, two coordinates) both
        # survive the merge, in canonical cell order.
        first = make_record(1, key="shared")
        second = make_record(4, key="shared", config_label="alias")
        assert merge_records([second, first]) == [first, second]

    def test_merge_dedups_exact_duplicate_cells(self):
        # The same shard file merged twice (or a concurrent-writer race)
        # collapses to one record per cell.
        record = make_record(2)
        assert merge_records([record, record]) == [record]

    def test_loading_a_concatenated_mixed_file_is_refused(self, tmp_path):
        # `cat scaleA.jsonl scaleB.jsonl > both.jsonl` puts two
        # fingerprints for one cell in a single file; loading must refuse
        # rather than silently keep whichever came first.
        path = tmp_path / "both.jsonl"
        path.write_text(make_record(0, key="scale-a").to_line()
                        + make_record(0, key="scale-b").to_line())
        with pytest.raises(ValueError, match="conflicting records"):
            ResultStore(path)

    def test_merge_refuses_conflicting_records_for_one_cell(self):
        # The same cell recorded under two fingerprints means the inputs
        # were written under different parameters (e.g. two --max-rows
        # scales): merging would build a chimera store, so refuse loudly.
        with pytest.raises(ValueError, match="conflicting records"):
            merge_records([make_record(0, key="scale-150"),
                           make_record(0, key="scale-full")])

    def test_merge_refuses_index_conflicts_for_one_cell(self):
        # Same cell and fingerprint at two canonical indices: the stores
        # span different spec revisions (added/reordered scenarios) and
        # their orders cannot both be canonical.
        old = make_record(3, key="same", scenario="s")
        shifted = dataclasses.replace(old, cell_index=5)
        with pytest.raises(ValueError, match="conflicting records"):
            merge_records([old, shifted])

    def test_render_is_order_and_duplication_invariant(self):
        records = [make_record(0), make_record(1), make_record(2)]
        shuffled = [records[2], records[0], records[1], records[0]]
        assert render_records(merge_records(shuffled)) == \
            render_records(merge_records(records))

    def test_merge_files_round_trips_bytes(self, tmp_path):
        shard_a, shard_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        store_a, store_b = ResultStore(shard_a), ResultStore(shard_b)
        store_a.append(make_record(0))
        store_b.append(make_record(1))
        merged = merge_files([shard_a, shard_b])
        out = tmp_path / "merged.jsonl"
        write_records(out, merged)
        assert out.read_text() == render_records(merged)
        # Merging a merged store is the identity.
        assert merge_files([out]) == merged

    def test_merge_files_rejects_missing_stores(self, tmp_path):
        # A typo'd shard path must fail loudly: a merge silently missing a
        # shard would look complete while dropping half the grid.
        present = tmp_path / "present.jsonl"
        ResultStore(present).append(make_record(0))
        with pytest.raises(FileNotFoundError, match="not found"):
            merge_files([present, tmp_path / "typo.jsonl"])

    def test_report_keying_refuses_multi_sweep_record_sets(self):
        # Without sweep_id in the report key, two sweeps' coinciding cells
        # would silently overwrite each other — so keying (and everything
        # built on it, such as summaries) demands records of one sweep at a
        # time.
        ours = make_record(0)
        theirs = dataclasses.replace(make_record(0), sweep_id="other")
        assert records_to_reports([ours])  # single sweep is fine
        with pytest.raises(ValueError, match="multiple sweeps"):
            records_to_reports([ours, theirs])

    def test_lines_are_canonical_json(self):
        line = make_record(0).to_line()
        assert line.endswith("\n")
        assert json.dumps(json.loads(line), sort_keys=True) + "\n" == line


class TestStreamingMerge:
    """`StoreScan` / `merge_files_to`: the bounded-memory paths must be
    byte-identical to the list-based canonical merge they replace."""

    def test_scan_streams_and_skips_garbage(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append(make_record(0))
        store.append(make_record(1))
        with open(path, "a") as handle:
            handle.write("\n" + make_record(0).to_line())  # blank, duplicate
            handle.write(make_record(2).to_line()[:20])  # torn tail
        data = path.read_bytes()
        scan = StoreScan(path)
        assert [(record.cell_index, data[start:end])
                for record, start, end in scan] == [
            (index, make_record(index).to_line().encode())
            for index in (0, 1)]
        assert (scan.duplicates, scan.invalid) == (1, 2)
        assert scan.end == len(data) - 20  # stopped before the torn tail
        # Once the tail's line is whole, a scan from there seeded with the
        # cells seen yields only the new record.
        with open(path, "a") as handle:
            handle.write(make_record(2).to_line()[20:])
        resumed = StoreScan(path, start=scan.end, cells=scan.cells)
        assert [record.cell_index for record, _, _ in resumed] == [2]
        assert resumed.end == path.stat().st_size
        assert len(scan.cells) == 3

    def test_seeded_scan_applies_the_rule_across_its_start(self, tmp_path):
        # The index catches up by scanning from its end offset, seeded
        # with the cells it holds: a record past the offset is judged
        # against cells seen before it, not only against the new lines.
        path = tmp_path / "store.jsonl"
        path.write_text(render_records([make_record(0), make_record(1)]))
        first = StoreScan(path)
        assert [record.cell_index for record, _, _ in first] == [0, 1]
        with open(path, "a") as handle:
            handle.write(make_record(1).to_line() + make_record(2).to_line())
        resumed = StoreScan(path, start=first.end, cells=dict(first.cells))
        assert [record.cell_index for record, _, _ in resumed] == [2]
        assert (resumed.duplicates, resumed.invalid) == (1, 0)
        with open(path, "a") as handle:
            handle.write(make_record(0, key="other-fingerprint").to_line())
        with pytest.raises(ValueError, match="conflicting records"):
            list(StoreScan(path, start=resumed.end, cells=resumed.cells))
        # Unseeded, the same tail holds one record of a new cell.
        tail = StoreScan(path, start=resumed.end)
        assert [record.key for record, _, _ in tail] == ["other-fingerprint"]

    def test_scan_of_a_missing_file_raises(self, tmp_path):
        # A missing file is not an empty store to the scanner: each caller
        # decides (a store open treats it as fresh, a merge refuses it).
        scan = StoreScan(tmp_path / "absent.jsonl")
        with pytest.raises(FileNotFoundError):
            list(scan)
        assert (scan.end, scan.duplicates, scan.invalid) == (0, 0, 0)

    def test_merge_files_to_matches_list_merge_bytes(self, tmp_path):
        shard_a, shard_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        store_a, store_b = ResultStore(shard_a), ResultStore(shard_b)
        # Interleave cells across shards, out of canonical order, with an
        # exact duplicate between shards.
        for index in (4, 0, 2):
            store_a.append(make_record(index))
        for index in (3, 1, 2):
            store_b.append(make_record(index))
        out = tmp_path / "merged.jsonl"
        count = merge_files_to([shard_a, shard_b], out)
        want = merge_files([shard_a, shard_b])
        assert count == len(want) == 5
        assert out.read_text() == render_records(want)
        # Merging the merged store again is the identity.
        again = tmp_path / "again.jsonl"
        assert merge_files_to([out], again) == 5
        assert again.read_text() == out.read_text()

    def test_merge_files_to_refuses_conflicts(self, tmp_path):
        shard_a, shard_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        ResultStore(shard_a).append(make_record(0, key="scale-150"))
        ResultStore(shard_b).append(make_record(0, key="scale-full"))
        with pytest.raises(ValueError, match="conflicting records"):
            merge_files_to([shard_a, shard_b], tmp_path / "out.jsonl")

    def test_merge_files_to_rejects_missing_stores(self, tmp_path):
        present = tmp_path / "present.jsonl"
        ResultStore(present).append(make_record(0))
        with pytest.raises(FileNotFoundError, match="not found"):
            merge_files_to([present, tmp_path / "typo.jsonl"],
                           tmp_path / "out.jsonl")

    def test_merge_files_to_keeps_coinciding_cells(self, tmp_path):
        shard = tmp_path / "shard.jsonl"
        store = ResultStore(shard)
        store.append(make_record(1, key="shared", scenario="s"))
        store.append(make_record(4, key="shared", scenario="s",
                                 config_label="alias"))
        out = tmp_path / "out.jsonl"
        assert merge_files_to([shard], out) == 2
        assert [r.cell_index for r, _, _ in StoreScan(out)] == [1, 4]
