"""Property tests for the sidecar index under adversarial histories.

Two invariants, for *any* interleaving of appends, mid-append kills
(torn tails), lines of bytes that are not UTF-8, compactions, sidecar
drops, and process restarts:

* the incrementally maintained index is row-for-row identical to a
  from-scratch rebuild of the same store file;
* the store's contents match the straightforward model (every fully
  appended record, first-wins, in arrival order) — dropping the sidecar
  at any point loses nothing.

The fabric's scripted fault schedules are replayed against the same
invariants, so the index inherits the chaos matrix the coordinator is
already tested under."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import ExperimentRunner
from repro.fabric import SCHEDULES, run_chaos
from repro.sweeps.compact import compact_store
from repro.sweeps.driver import summarise_store_file
from repro.sweeps.index import drop_index, ensure_index
from repro.sweeps.registry import get_sweep
from repro.sweeps.store import ResultStore
from repro.sweeps.synth import synthetic_record

OPS = st.lists(
    st.sampled_from(["append", "reopen", "tear", "corrupt", "drop",
                     "compact"]),
    min_size=1, max_size=24)


def replay(ops: list[str], root: Path) -> None:
    path = root / "store.jsonl"
    store = ResultStore(path)
    expected: dict[tuple, object] = {}  # cell -> record, arrival order
    position = 0
    for op in ops:
        if op == "append":
            record = synthetic_record(position)
            position += 1
            store.append(record)
            expected.setdefault(record.cell, record)
        elif op == "reopen":
            store.close()
            store = ResultStore(path)
        elif op == "tear":
            # A kill mid-append: half a line lands, the process dies.
            # The cell is retried later (position is NOT consumed), so
            # the history "torn fragment, then the same record whole"
            # is exercised too.
            line = synthetic_record(position).to_line()
            store.close()
            with open(path, "ab") as handle:
                handle.write(line.encode("utf-8")[:len(line) // 2])
            store = ResultStore(path)
        elif op == "corrupt":
            # One newline-terminated line of bytes that are not UTF-8,
            # after terminating a torn fragment as an append would.
            store.close()
            data = path.read_bytes() if path.exists() else b""
            with open(path, "ab") as handle:
                if data and not data.endswith(b"\n"):
                    handle.write(b"\n")
                handle.write(b"\xff\xfe not utf-8 \x80\n")
            store = ResultStore(path)
        elif op == "drop":
            store.close()
            drop_index(path)
            store = ResultStore(path)
        elif op == "compact":
            store.close()
            if path.exists():
                compact_store(path, fsync=False)
            store = ResultStore(path)
    store.close()

    # Invariant 1: the store reads back exactly the model, in order —
    # through the lazy index-backed path and the eager scan alike.
    for kwargs in ({}, {"index": False}):
        reread = ResultStore(path, **kwargs) if path.exists() else None
        records = [] if reread is None else reread.records
        assert records == list(expected.values())
        if reread is not None:
            reread.close()

    # Invariant 2: whatever incremental maintenance left behind equals a
    # from-scratch rebuild, row for row (coordinates and scalars).
    if path.exists():
        index = ensure_index(path)
        incremental = index.dump_rows()
        index.rebuild()
        assert index.dump_rows() == incremental

        # And the zero-scan summary agrees with the streamed scan.
        if expected:
            assert (index.summarise(title="T").render()
                    == summarise_store_file(path, title="T").render())
        index.close()


@given(ops=OPS)
@settings(max_examples=50, deadline=None)
def test_any_interleaving_keeps_index_and_store_consistent(ops):
    with tempfile.TemporaryDirectory() as root:
        replay(ops, Path(root))


def test_the_worst_known_history_directly():
    # A deterministic regression pin of the nastiest shape: torn tail,
    # retry, drop, compact, another tear, reopen, then a non-UTF-8 line
    # that the stores must read past.
    ops = ["append", "tear", "append", "drop", "append", "compact",
           "tear", "reopen", "append", "compact", "corrupt", "append"]
    with tempfile.TemporaryDirectory() as root:
        replay(ops, Path(root))


RUNNER = ExperimentRunner()
SMOKE = get_sweep("smoke")


@pytest.mark.parametrize("schedule", SCHEDULES,
                         ids=[s.name for s in SCHEDULES])
def test_chaos_schedules_leave_index_equal_to_rebuild(schedule, tmp_path):
    store_path = tmp_path / "store.jsonl"
    run_chaos(SMOKE, schedule, workers=2, runner=RUNNER,
              store_path=store_path)
    index = ensure_index(store_path)
    incremental = index.dump_rows()
    index.rebuild()
    assert index.dump_rows() == incremental
    index.close()
    # The index-backed resume view equals the eager scan's.
    lazy = ResultStore(store_path)
    eager = ResultStore(store_path, index=False)
    assert lazy.done_cells == eager.done_cells
    assert lazy.done_keys == eager.done_keys
    lazy.close()
