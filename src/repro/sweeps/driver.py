"""Sharded, resumable sweep execution over the experiment runner.

:func:`run_sweep` turns a frozen :class:`~repro.sweeps.spec.SweepSpec` into
engine executions: it enumerates the canonical cell order, keeps the
deterministic ``index % shard_count`` slice, skips every cell already
recorded in the :class:`~repro.sweeps.store.ResultStore`, and runs the
rest in batches through
:meth:`~repro.experiments.runner.ExperimentRunner.run_engine_many` (process
fan-out under ``--jobs``), appending one schema-versioned record per cell
as each batch lands.  A batch is the pending cells of the next ``jobs``
scenarios, so a scenario's design points reach the runner together and
share one dataflow per operand wherever their configs differ only in
pricing fields.  Because records append *per batch* and done-ness
is per cell, a killed sweep loses at most one batch of work and a resumed
one re-executes only unfinished cells.

Each record also carries the runner's point fingerprint: cells that
coincide (two grid configs collapsing to one effective design) still get
their own records but *compute* once through the runner's memo, and a
sweep sharing a ``--cache-dir`` with the figure harnesses replays their
overlapping points instead of re-simulating them — and vice versa.  The
fingerprint doubles as a guard: a store whose records disagree with the
current invocation's fingerprints was written under different parameters
and is refused rather than silently mixed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import groupby

from repro.corpus.spec import CorpusSpec, Scenario, scenario_fingerprint
from repro.engines.base import Engine
from repro.engines.registry import create_engine
from repro.experiments.designspace import geomean_gflops
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.formats.csr import CSRMatrix
from repro.metrics.report import CostReport
from repro.sweeps.spec import SweepCell, SweepSpec, enumerate_cells, shard_cells
from repro.sweeps.store import (
    CellEntry,
    ResultStore,
    SweepRecord,
    records_to_reports,
)
from repro.utils.reporting import Table


@dataclass(frozen=True)
class SweepRunSummary:
    """Outcome of one :func:`run_sweep` invocation.

    Attributes:
        sweep_id: the executed sweep.
        shard_index / shard_count: the shard this invocation owned.
        cells_grid: cells in the whole sweep grid.
        cells_shard: cells assigned to this shard.
        executed: cells recorded by this invocation (coinciding cells
            compute once through the runner's memo but each count here).
        replayed: shard cells already recorded in the store — skipped.
        remaining: shard cells left unexecuted by a ``max_cells`` stop.
        failed: cells that hit the ``cell_timeout`` wall clock (or whose
            engine raised under it) — *failed but retryable*: no record is
            appended, so a resumed run re-attempts exactly these cells.
        failed_cells: the failed cells' ``scenario|engine|config`` ids.
    """

    sweep_id: str
    shard_index: int
    shard_count: int
    cells_grid: int
    cells_shard: int
    executed: int
    replayed: int
    remaining: int
    failed: int = 0
    failed_cells: tuple[str, ...] = ()

    def render(self) -> str:
        """One status line, e.g. for the CLI."""
        line = (f"[sweep {self.sweep_id}] shard "
                f"{self.shard_index}/{self.shard_count}: "
                f"{self.cells_shard} of {self.cells_grid} cells, "
                f"{self.executed} executed, {self.replayed} replayed, "
                f"{self.remaining} remaining")
        if self.failed:
            line += (f", {self.failed} failed-retryable "
                     f"({', '.join(self.failed_cells)})")
        return line


def _cell_engine(cell: SweepCell,
                 engines: dict[tuple[str, str], Engine]) -> Engine:
    """Build (or reuse) the engine instance executing ``cell``."""
    cache_key = (cell.engine, cell.config_label)
    if cache_key not in engines:
        if cell.config is not None:
            engines[cache_key] = create_engine(cell.engine,
                                               config=cell.config)
        else:
            engines[cache_key] = create_engine(cell.engine)
    return engines[cache_key]


def _cell_record(spec: SweepSpec, cell: SweepCell, key: str,
                 report: CostReport) -> SweepRecord:
    """The store record of one executed cell.

    :func:`run_sweep` and the fabric's
    :class:`~repro.fabric.worker.CellExecutor` both build records here, so
    a cell's record is byte-identical whichever of them ran it.
    """
    return SweepRecord(
        sweep_id=spec.sweep_id,
        cell_index=cell.index,
        scenario=cell.scenario.name,
        engine=cell.engine,
        config_label=cell.config_label,
        key=key,
        report=report.to_dict(),
    )


def _check_store_consistency(spec: SweepSpec, corpus: CorpusSpec,
                             store: ResultStore, runner: ExperimentRunner,
                             engines: dict[tuple[str, str], Engine],
                             expected_keys: dict[tuple[str, str, str, str],
                                                 str],
                             fingerprints: dict[str, str],
                             indices: dict[tuple[str, str, str, str], int]
                             ) -> None:
    """Refuse to resume a store written under different parameters.

    Every record of *this* sweep — this shard's cells and the ones other
    shards wrote into a shared store alike — must sit at its cell's
    current canonical index *and* carry the fingerprint the current
    invocation would compute for it.  A disagreement means a different
    corpus scale, a forced backend, or an edited spec (renamed labels,
    added or reordered scenarios); resuming anyway would append a second,
    incompatible copy of the grid — or scramble the canonical order the
    byte-identical merge contract rests on.  Records of *other* sweeps are
    ignored: stores may legitimately be shared, each sweep owning its own
    cells.

    Works from :meth:`~repro.sweeps.store.ResultStore.cell_entries` — the
    identities-only view — so resuming against an index-backed store never
    hydrates a single report payload.
    """
    for record in store.cell_entries():
        if record.sweep_id != spec.sweep_id:
            continue
        if indices.get(record.cell) != record.cell_index:
            raise ValueError(
                f"result store {store.path or '<memory>'} holds cell "
                f"{'|'.join(record.cell[1:])!r} of sweep "
                f"{spec.sweep_id!r} at canonical index "
                f"{record.cell_index}, which does not match the current "
                f"grid — the spec or corpus was edited since the store "
                f"was written; use a fresh store"
            )
        expected = expected_keys.get(record.cell)
        if expected is None:
            expected = _expected_record_key(record, spec, corpus, runner,
                                            engines, fingerprints)
            if expected is not None:
                expected_keys[record.cell] = expected
        if expected is None or record.key != expected:
            raise ValueError(
                f"result store {store.path or '<memory>'} holds cell "
                f"{'|'.join(record.cell[1:])!r} of sweep "
                f"{spec.sweep_id!r} under a different fingerprint — it was "
                f"written with different parameters (corpus scale, forced "
                f"backend, or an edited spec); use a fresh store or rerun "
                f"with the original parameters"
            )


def _expected_record_key(record: "SweepRecord | CellEntry", spec: SweepSpec,
                         corpus: CorpusSpec, runner: ExperimentRunner,
                         engines: dict[tuple[str, str], Engine],
                         fingerprints: dict[str, str]) -> str | None:
    """The fingerprint this invocation would assign a record's cell.

    Used for records outside the current shard's slice (another shard's
    cells in a shared store).  Returns ``None`` when the record's
    coordinates do not exist in the current spec/corpus — an edited spec,
    which the caller reports as an inconsistency.
    """
    if record.engine not in spec.engines:
        return None
    try:
        scenario = corpus.get_scenario(record.scenario)
        config = spec.config_for(record.config_label)
    except KeyError:
        return None
    engine = _cell_engine(SweepCell(record.cell_index, scenario, record.engine,
                                    record.config_label, config), engines)
    fingerprint = fingerprints.get(record.scenario)
    if fingerprint is None:
        fingerprint = scenario_fingerprint(scenario)
        fingerprints[record.scenario] = fingerprint
    # With a precomputed operand fingerprint the matrix itself is not
    # needed by the key computation (self-product, B = A).
    return runner.point_key(engine, None, fingerprint_a=fingerprint)


def run_sweep(spec: SweepSpec, *,
              store: ResultStore | str | os.PathLike | None = None,
              runner: ExperimentRunner | None = None,
              shard_index: int = 0, shard_count: int = 1,
              max_rows: int | None = None,
              max_cells: int | None = None,
              cell_timeout: float | None = None
              ) -> tuple[SweepRunSummary, ResultStore]:
    """Execute (this shard of) a sweep, appending results to the store.

    Args:
        spec: the frozen sweep declaration.
        store: result store instance, JSONL path, or ``None`` for an
            in-memory store.  An existing file resumes: recorded cells are
            skipped, unfinished ones execute.
        runner: experiment runner (memoisation, ``--jobs`` fan-out);
            defaults to the process-wide runner.
        shard_index / shard_count: deterministic ``index % shard_count``
            slice of the canonical cell order this invocation owns.
        max_rows: cap the corpus scenario dimensions (smoke runs).
        max_cells: stop after executing this many cells — the programmatic
            equivalent of a mid-flight kill, used by the resumability tests
            and useful for time-boxed incremental runs.
        cell_timeout: per-cell wall-clock budget in seconds.  With it set,
            each uncached cell runs in its own killable process, sharing
            no dataflow, and a hung (or crashing) engine marks that cell
            *failed-retryable* — counted in the summary, no record
            appended — instead of blocking the shard forever.  ``None``
            (default) lets cells run unbounded.

    Returns:
        ``(summary, store)`` — the run's counts and the (possibly newly
        created) store holding every completed cell.
    """
    runner = runner or default_runner()
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    cells = enumerate_cells(spec, max_rows=max_rows)
    mine = shard_cells(cells, shard_index, shard_count)

    corpus = spec.corpus_spec(max_rows=max_rows)
    engines: dict[tuple[str, str], Engine] = {}
    pending: list[tuple[SweepCell, Engine, str]] = []
    expected_keys: dict[tuple[str, str, str, str], str] = {}
    fingerprints: dict[str, str] = {}
    done = store.done_cells
    replayed = 0
    # Key cells one scenario at a time (the shard slice preserves the
    # scenario-major canonical order): each operand's fingerprint comes
    # from the recipe-keyed memo — a scenario this process hashed before
    # is not even rebuilt, so a fully-recorded (no-op) resume touches no
    # matrices at all, and a cold one holds at most one matrix at a time.
    for name, group in groupby(mine, key=lambda cell: cell.scenario.name):
        fingerprint = scenario_fingerprint(corpus.get_scenario(name))
        fingerprints[name] = fingerprint
        for cell in group:
            engine = _cell_engine(cell, engines)
            key = runner.point_key(engine, None, fingerprint_a=fingerprint)
            cell_identity = (spec.sweep_id, name, cell.engine,
                             cell.config_label)
            expected_keys[cell_identity] = key
            if cell_identity in done:
                replayed += 1
            else:
                pending.append((cell, engine, key))

    indices = {(spec.sweep_id, cell.scenario.name, cell.engine,
                cell.config_label): cell.index for cell in cells}
    _check_store_consistency(spec, corpus, store, runner, engines,
                             expected_keys, fingerprints, indices)

    if max_cells is not None and max_cells < 0:
        raise ValueError(f"max_cells must be non-negative, got {max_cells}")
    budget = len(pending) if max_cells is None else min(max_cells,
                                                        len(pending))
    # A batch is the pending cells of the next ``runner.jobs`` scenarios
    # (pending cells are scenario-contiguous, as the canonical order is
    # scenario-major), so each scenario's design points reach the runner
    # together and share one dataflow per operand where they can.
    # Records append after each batch, bounding how much a kill can lose.
    scenarios = [list(group) for _, group in
                 groupby(pending[:budget],
                         key=lambda item: item[0].scenario.name)]
    batches = [[item for group in scenarios[start:start + runner.jobs]
                for item in group]
               for start in range(0, len(scenarios), runner.jobs)]

    # Execution materialises operands lazily, batch by batch, and frees
    # each scenario's matrix after its last pending cell runs — peak
    # memory is one batch's operands, never the remaining corpus.  A cold
    # scenario with pending cells is thus generated twice (once above to
    # fingerprint, once here to execute); that is deliberate: generation
    # is cheap next to simulation, warm processes skip the first build
    # through the fingerprint memo, and the alternative — retaining every
    # pending operand from the keying loop — scales peak memory with the
    # whole un-run grid.
    last_use = {cell.scenario.name: position
                for position, (cell, _, _) in enumerate(pending)}
    matrices: dict[str, CSRMatrix] = {}
    attempted = 0
    failed_cells: list[str] = []
    for batch in batches:
        for name in {cell.scenario.name for cell, _, _ in batch}:
            if name not in matrices:
                matrices[name] = corpus.get_scenario(name).build()
        reports = runner.run_engine_many(
            [(engine, matrices[cell.scenario.name])
             for cell, engine, _ in batch],
            keys=[key for _, _, key in batch],
            timeout=cell_timeout)
        for (cell, _, key), report in zip(batch, reports):
            if report is None:
                # Timed out (or crashed) under cell_timeout: leave the
                # cell unrecorded so a resume re-attempts it, and carry on
                # with the rest of the shard.
                failed_cells.append(cell.cell_id)
                continue
            store.append(_cell_record(spec, cell, key, report))
        attempted += len(batch)
        # Free operands whose last pending cell has now run; memory only
        # shrinks as the (scenario-contiguous) pending list drains.
        for name in [name for name, position in last_use.items()
                     if position < attempted]:
            del matrices[name]
            del last_use[name]

    summary = SweepRunSummary(
        sweep_id=spec.sweep_id,
        shard_index=shard_index,
        shard_count=shard_count,
        cells_grid=len(cells),
        cells_shard=len(mine),
        executed=attempted - len(failed_cells),
        replayed=replayed,
        remaining=len(pending) - attempted,
        failed=len(failed_cells),
        failed_cells=tuple(failed_cells),
    )
    return summary, store


# ----------------------------------------------------------------------
# Summarising stores
# ----------------------------------------------------------------------
def group_reports(records: list[SweepRecord]
                  ) -> dict[tuple[str, str], list[CostReport]]:
    """Records' reports grouped by ``(engine, config label)``.

    Group order follows first appearance, which for canonical (merged)
    records is the sweep's engine/config declaration order.
    """
    reports = records_to_reports(records)
    groups: dict[tuple[str, str], list[CostReport]] = {}
    for record in records:
        groups.setdefault((record.engine, record.config_label),
                          []).append(reports[record.report_key])
    return groups


def summarise_records(records: list[SweepRecord], *,
                      title: str = "sweep summary") -> Table:
    """Per-(engine, config) summary table of a (merged) result store.

    The Figure 17 quantities — geomean GFLOP/s and total DRAM bytes — plus
    modelled runtime and headline energy, one row per grid column.
    """
    table = Table(
        title=title,
        columns=["engine", "config", "cells", "geomean GFLOP/s",
                 "DRAM [B]", "runtime [s]", "energy [J]"],
    )
    for (engine, label), reports in group_reports(records).items():
        table.add_row(
            engine, label, len(reports),
            geomean_gflops(reports),
            sum(report.dram_bytes for report in reports),
            sum(report.runtime_seconds for report in reports),
            sum(report.energy_joules for report in reports),
        )
    return table


#: Floor applied to per-report GFLOP/s before the log — the same floor
#: :func:`~repro.experiments.designspace.geomean_gflops` applies, so the
#: streamed geomean matches the list-based one bit for bit.
_GEOMEAN_FLOOR = 1e-12


def summarise_store_file(path: str | os.PathLike, *,
                         sweep_id: str | None = None,
                         title: str = "sweep summary") -> Table:
    """Streamed per-(engine, config) summary of a store file.

    Produces the same table as ``summarise_records(ResultStore(path)
    .records)`` but accumulates only per-group scalars (count, summed log
    GFLOP/s, DRAM bytes, runtime, energy) while reading the JSONL line by
    line — one record lives at a time, so million-cell stores summarise in
    bounded memory.  The accumulation order equals the record order, so
    every float sum matches the list-based path exactly.

    Args:
        path: the (merged, canonical) store file.
        sweep_id: summarise only this sweep's records; ``None`` requires
            the store to hold a single sweep (as
            :func:`~repro.sweeps.store.require_single_sweep` does).
    """
    import math

    from repro.sweeps.store import iter_records

    # acc = [cells, sum(log gflops), dram bytes, runtime, energy]
    groups: dict[tuple[str, str], list] = {}
    seen_sweeps: set[str] = set()
    for record in iter_records(path):
        if sweep_id is not None and record.sweep_id != sweep_id:
            continue
        seen_sweeps.add(record.sweep_id)
        if len(seen_sweeps) > 1:
            raise ValueError(
                f"records span multiple sweeps "
                f"({', '.join(sorted(seen_sweeps))}); filter by sweep_id "
                f"before keying or summarising them"
            )
        report = record.cost_report()
        acc = groups.setdefault((record.engine, record.config_label),
                                [0, 0.0, 0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += math.log(max(report.gflops, _GEOMEAN_FLOOR))
        acc[2] += report.dram_bytes
        acc[3] += report.runtime_seconds
        acc[4] += report.energy_joules

    table = Table(
        title=title,
        columns=["engine", "config", "cells", "geomean GFLOP/s",
                 "DRAM [B]", "runtime [s]", "energy [J]"],
    )
    for (engine, label), acc in groups.items():
        cells, log_sum, dram, runtime, energy = acc
        table.add_row(engine, label, cells, math.exp(log_sum / cells),
                      dram, runtime, energy)
    return table
