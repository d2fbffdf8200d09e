"""Sweep driver: cell enumeration, shard assignment, resume, memo sharing."""

from __future__ import annotations

import pytest

from repro.core.config import SpArchConfig
from repro.engines.registry import get_engine_entry
from repro.experiments.runner import ExperimentRunner
from repro.sweeps import (
    SweepSpec,
    enumerate_cells,
    get_sweep,
    list_sweeps,
    merge_records,
    render_records,
    run_sweep,
    shard_cells,
)
from repro.sweeps.driver import (
    group_reports,
    summarise_records,
    summarise_store_file,
)
from repro.sweeps.store import ResultStore

SMOKE = get_sweep("smoke")


@pytest.fixture(scope="module")
def warm_runner():
    """One memoising runner shared across the module: every test sees the
    same deterministic reports, and the engine points compute only once."""
    return ExperimentRunner()


class TestRegistry:
    def test_registered_sweeps(self):
        assert "smoke" in list_sweeps()
        assert "fig17-dse" in list_sweeps()
        with pytest.raises(KeyError, match="unknown sweep"):
            get_sweep("not-a-sweep")

    def test_fig17_sweep_reexpresses_the_grid(self):
        spec = get_sweep("fig17-dse")
        labels = [label for label, _ in spec.configs]
        # 7 line sizes + 4 shapes + 5 comparator sizes + 5 FIFO sizes.
        assert len(labels) == 21
        assert any(label.startswith("comparator:") for label in labels)
        assert len(enumerate_cells(spec)) == 21 * 5  # x 5 DSE benchmarks

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="no engines"):
            SweepSpec("x", "t", corpus="smoke", engines=())
        with pytest.raises(ValueError, match="duplicate config labels"):
            SweepSpec("x", "t", corpus="smoke", engines=("sparch",),
                      configs=(("a", SpArchConfig()), ("a", SpArchConfig())))
        with pytest.raises(ValueError, match="reserved"):
            SweepSpec("x", "t", corpus="smoke", engines=("sparch",),
                      configs=(("-", SpArchConfig()),))
        with pytest.raises(KeyError, match="unknown engine"):
            SweepSpec("x", "t", corpus="smoke", engines=("warp-drive",))


class TestCellEnumeration:
    def test_canonical_order_is_scenario_major(self):
        cells = enumerate_cells(SMOKE)
        assert [cell.index for cell in cells] == list(range(len(cells)))
        # Simulation engines get one cell per config, baselines one cell.
        per_scenario = len(SMOKE.configs) + 1  # sparch configs + mkl
        assert len(cells) == 3 * per_scenario
        assert cells[0].engine == "sparch" and cells[0].config is not None
        assert cells[1].engine == "mkl" and cells[1].config is None
        assert cells[1].config_label == "-"

    def test_baseline_cells_ignore_the_config_axis(self):
        for cell in enumerate_cells(SMOKE):
            kind = get_engine_entry(cell.engine).factory.kind
            assert (cell.config is None) == (kind == "baseline")

    def test_shards_partition_the_grid(self):
        cells = enumerate_cells(SMOKE)
        for shard_count in (1, 2, 3, 4):
            shards = [shard_cells(cells, index, shard_count)
                      for index in range(shard_count)]
            indices = [cell.index for shard in shards for cell in shard]
            assert sorted(indices) == [cell.index for cell in cells]

    def test_shard_arguments_validated(self):
        cells = enumerate_cells(SMOKE)
        with pytest.raises(ValueError):
            shard_cells(cells, 0, 0)
        with pytest.raises(ValueError):
            shard_cells(cells, 2, 2)


class TestDriver:
    def test_full_run_covers_every_cell(self, warm_runner):
        summary, store = run_sweep(SMOKE, runner=warm_runner)
        assert summary.cells_grid == summary.cells_shard == len(store)
        assert summary.executed + summary.replayed == summary.cells_shard
        assert summary.remaining == 0
        for record in store.records:
            assert record.sweep_id == "smoke"
            assert record.report["schema_version"] > 0

    def test_rerun_on_same_store_executes_nothing(self, warm_runner,
                                                  tmp_path):
        path = tmp_path / "store.jsonl"
        first, _ = run_sweep(SMOKE, store=path, runner=warm_runner)
        again, _ = run_sweep(SMOKE, store=path, runner=warm_runner)
        assert first.executed == first.cells_shard
        assert (again.executed, again.replayed) == (0, again.cells_shard)

    def test_store_records_share_the_runner_fingerprint(self, warm_runner,
                                                        tmp_path):
        """The store key IS the runner's memo key: a sweep warmed through a
        cache-dir replays from the disk memo on a fresh runner."""
        cache_dir = tmp_path / "cache"
        writer = ExperimentRunner(cache_dir=cache_dir)
        run_sweep(SMOKE, runner=writer)
        reader = ExperimentRunner(cache_dir=cache_dir)
        summary, _ = run_sweep(SMOKE, runner=reader)
        assert summary.executed == summary.cells_shard  # cells re-append...
        assert reader.cache_misses == 0                 # ...from the memo

    def test_kill_and_resume_matches_uninterrupted_run(self, warm_runner,
                                                       tmp_path):
        reference, _ = run_sweep(SMOKE, store=tmp_path / "ref.jsonl",
                                 runner=warm_runner)
        partial_path = tmp_path / "part.jsonl"
        killed, _ = run_sweep(SMOKE, store=partial_path, runner=warm_runner,
                              max_cells=2)
        assert (killed.executed, killed.remaining) == (2, 4)
        resumed, resumed_store = run_sweep(SMOKE, store=partial_path,
                                           runner=warm_runner)
        assert resumed.executed == 4 and resumed.replayed == 2
        assert render_records(merge_records(resumed_store.records)) == \
            render_records(merge_records(ResultStore(tmp_path / "ref.jsonl")
                                         .records))
        assert reference.cells_grid == len(resumed_store)

    def test_resume_after_torn_tail_is_byte_identical(self, warm_runner,
                                                      tmp_path):
        """A kill that tears the store's final line mid-write must still
        resume to the canonical bytes: the torn cell recomputes and its
        record is not glued onto the fragment."""
        reference, _ = run_sweep(SMOKE, store=tmp_path / "ref.jsonl",
                                 runner=warm_runner)
        path = tmp_path / "torn.jsonl"
        run_sweep(SMOKE, store=path, runner=warm_runner, max_cells=3)
        content = path.read_text()
        path.write_text(content[:-15])  # tear the last record mid-line
        resumed, store = run_sweep(SMOKE, store=path, runner=warm_runner)
        assert resumed.executed == 4  # the torn cell recomputed
        assert render_records(merge_records(
            ResultStore(path).records)) == \
            render_records(merge_records(ResultStore(tmp_path / "ref.jsonl")
                                         .records))

    def test_two_shard_merge_equals_single_shard(self, warm_runner,
                                                 tmp_path):
        _, reference = run_sweep(SMOKE, store=tmp_path / "ref.jsonl",
                                 runner=warm_runner)
        shard_stores = []
        for shard_index in (0, 1):
            _, store = run_sweep(
                SMOKE, store=tmp_path / f"shard{shard_index}.jsonl",
                runner=warm_runner, shard_index=shard_index, shard_count=2)
            shard_stores.append(store)
        merged = merge_records([record for store in shard_stores
                                for record in store.records])
        assert render_records(merged) == \
            render_records(merge_records(reference.records))

    def test_coinciding_configs_record_every_cell_but_compute_once(self):
        """Two config labels collapsing to the same effective design (as
        fig17's line:64x48 / shape:1024x48 do at small scale) must both
        appear in the store — the grid never loses a point, including the
        paper's chosen one — while the computation runs once per
        fingerprint through the runner's memo."""
        spec = SweepSpec("twins", "coinciding configs", corpus="smoke",
                         engines=("sparch",),
                         configs=(("a", SpArchConfig()),
                                  ("b", SpArchConfig())))
        runner = ExperimentRunner()
        summary, store = run_sweep(spec, runner=runner)
        assert summary.executed == len(store) == 6  # 3 scenarios x 2 labels
        labels = {record.config_label for record in store.records}
        assert labels == {"a", "b"}
        assert runner.cache_misses == 3  # one computation per fingerprint
        assert runner.cache_hits == 3
        # Coinciding cells carry the same fingerprint and report payload.
        by_cell = {(r.scenario, r.config_label): r for r in store.records}
        for scenario in {r.scenario for r in store.records}:
            assert by_cell[(scenario, "a")].key == \
                by_cell[(scenario, "b")].key
            assert by_cell[(scenario, "a")].report == \
                by_cell[(scenario, "b")].report

    def test_max_cells_zero_executes_nothing(self, warm_runner):
        summary, store = run_sweep(SMOKE, runner=warm_runner, max_cells=0)
        assert summary.executed == 0 and len(store) == 0
        with pytest.raises(ValueError, match="max_cells"):
            run_sweep(SMOKE, runner=warm_runner, max_cells=-1)

    def test_resume_with_different_scale_is_refused(self, warm_runner,
                                                    tmp_path):
        """A store written at one corpus scale must not be resumed at
        another: the fingerprints differ, so every cell would re-execute
        and append a second, indistinguishable copy of the grid."""
        path = tmp_path / "store.jsonl"
        run_sweep(SMOKE, store=path, runner=warm_runner, max_rows=64)
        with pytest.raises(ValueError, match="different fingerprint"):
            run_sweep(SMOKE, store=path, runner=warm_runner)

    def test_resume_with_forced_backend_is_refused(self, warm_runner,
                                                   tmp_path):
        path = tmp_path / "store.jsonl"
        run_sweep(SMOKE, store=path, runner=warm_runner)
        forced = ExperimentRunner(engine="scalar")
        with pytest.raises(ValueError, match="different fingerprint"):
            run_sweep(SMOKE, store=path, runner=forced)

    def test_resume_of_another_shard_with_different_scale_is_refused(
            self, warm_runner, tmp_path):
        """The guard must also cover records *outside* the resuming
        shard's slice: running shard 1 onto a store shard 0 wrote at a
        different scale would otherwise mix two grids in one file."""
        path = tmp_path / "store.jsonl"
        run_sweep(SMOKE, store=path, runner=warm_runner, shard_index=0,
                  shard_count=2, max_rows=64)
        with pytest.raises(ValueError, match="different fingerprint"):
            run_sweep(SMOKE, store=path, runner=warm_runner, shard_index=1,
                      shard_count=2)

    def test_resume_after_spec_edit_reordering_cells_is_refused(
            self, warm_runner, tmp_path):
        """Reordering a sweep's grid (same fingerprints, new canonical
        indices) must refuse to resume: stale indices would scramble the
        canonical order the byte-identical merge contract rests on."""
        path = tmp_path / "store.jsonl"
        run_sweep(SMOKE, store=path, runner=warm_runner)
        edited = SweepSpec(SMOKE.sweep_id, SMOKE.title, corpus=SMOKE.corpus,
                           engines=tuple(reversed(SMOKE.engines)),
                           configs=SMOKE.configs)
        with pytest.raises(ValueError, match="does not match the current "
                                             "grid"):
            run_sweep(edited, store=path, runner=warm_runner)

    def test_shared_store_across_sweeps_keeps_each_grid_complete(
            self, warm_runner, tmp_path):
        """Two sweeps may share one store: cells record under their own
        sweep_id even when the computations coincide, and neither grid
        ends up with holes."""
        path = tmp_path / "store.jsonl"
        run_sweep(SMOKE, store=path, runner=warm_runner)
        other = SweepSpec("smoke-twin", "same grid, different id",
                          corpus=SMOKE.corpus, engines=SMOKE.engines,
                          configs=SMOKE.configs)
        summary, store = run_sweep(other, store=path, runner=warm_runner)
        # Every twin cell is recorded (replayed from the runner memo, not
        # silently skipped as done), under its own sweep_id.
        assert summary.executed == 6
        assert len([r for r in store.records
                    if r.sweep_id == "smoke-twin"]) == 6
        assert len(store) == 12

    def test_resume_with_different_shard_count_is_fine(self, warm_runner,
                                                       tmp_path):
        # Same parameters, different slicing: the overlapping cells match
        # their fingerprints, so re-sharding an existing store is legal.
        path = tmp_path / "store.jsonl"
        run_sweep(SMOKE, store=path, runner=warm_runner, shard_index=0,
                  shard_count=2)
        summary, _ = run_sweep(SMOKE, store=path, runner=warm_runner)
        assert summary.replayed == 3 and summary.executed == 3

    def test_noop_resume_builds_no_matrices(self, warm_runner, tmp_path,
                                            monkeypatch):
        """Resuming a fully-recorded sweep must not regenerate operands:
        fingerprints replay from the recipe-keyed memo."""
        from repro.corpus.spec import Scenario

        path = tmp_path / "store.jsonl"
        run_sweep(SMOKE, store=path, runner=warm_runner)  # primes the memo
        builds = []
        original = Scenario.build
        monkeypatch.setattr(Scenario, "build",
                            lambda self: builds.append(self.name)
                            or original(self))
        summary, _ = run_sweep(SMOKE, store=path, runner=warm_runner)
        assert summary.replayed == summary.cells_shard
        assert builds == []

    def test_max_rows_caps_the_corpus(self, warm_runner):
        summary, store = run_sweep(SMOKE, runner=warm_runner, max_rows=64)
        assert summary.cells_grid == 6
        for record in store.records:
            report = record.cost_report()
            assert report.output_nnz >= 0


class TestSummaries:
    def test_group_reports_follows_canonical_order(self, warm_runner):
        _, store = run_sweep(SMOKE, runner=warm_runner)
        groups = group_reports(merge_records(store.records))
        assert list(groups) == [("sparch", "table1"), ("mkl", "-")]
        assert all(len(reports) == 3 for reports in groups.values())

    def test_summarise_records_renders_one_row_per_group(self, warm_runner):
        _, store = run_sweep(SMOKE, runner=warm_runner)
        table = summarise_records(merge_records(store.records))
        assert len(table.rows) == 2
        rendered = table.render()
        assert "sparch" in rendered and "mkl" in rendered

    def test_summarise_store_file_matches_list_path(self, warm_runner,
                                                    tmp_path):
        # The streamed single-pass summary must render the exact table the
        # materialising path produces — same groups, same geomeans.
        path = tmp_path / "store.jsonl"
        run_sweep(SMOKE, store=path, runner=warm_runner)
        store = ResultStore(path)
        want = summarise_records(merge_records(store.records))
        got = summarise_store_file(path)
        assert got.render() == want.render()

    def test_summarise_store_file_filters_by_sweep(self, warm_runner,
                                                   tmp_path):
        import dataclasses

        path = tmp_path / "mixed.jsonl"
        run_sweep(SMOKE, store=path, runner=warm_runner)
        records = ResultStore(path).records
        with open(path, "a") as handle:
            for record in records:
                handle.write(dataclasses.replace(
                    record, sweep_id="other").to_line())
        # Unfiltered: refuse the ambiguous mixture.
        with pytest.raises(ValueError, match="multiple sweeps"):
            summarise_store_file(path)
        # Filtered: one sweep's records only, same table as before the mix.
        want = summarise_records(merge_records(records))
        got = summarise_store_file(path, sweep_id=SMOKE.sweep_id)
        assert got.render() == want.render()
