"""Append-only, resumable JSONL result store for corpus sweeps.

One line per completed sweep cell: the cell's coordinates (scenario /
engine / config label, plus its canonical index), the *runner fingerprint*
the cell's :class:`~repro.metrics.report.CostReport` is memoised under, and
the schema-versioned report payload itself.  The format is designed around
three operations a long-running sweep needs:

* **Resume** — a killed run reopens its store, collects the cell
  identities of the lines that survived (a torn final line from the kill
  parses as corrupt and is simply skipped), and re-executes only cells
  without a record.  Every grid cell gets exactly one record — cells that
  share a fingerprint (two ladder rungs capping to one proxy, grid configs
  coinciding at small scale) *compute* once through the runner's memo but
  are each recorded under their own coordinates, so summaries never lose a
  grid point.
* **Rotation** — a line whose report was written under an older
  :data:`~repro.metrics.report.SCHEMA_VERSION` (or store layout) is treated
  as *not done*: stale results rotate out by recomputation, exactly like
  the experiment runner's cache keys, never by coercion.
* **Merge** — shard stores concatenate into one *canonical* store:
  records sorted by canonical cell order and deduplicated per cell.
  Canonicalisation makes the merged bytes a pure function of the sweep
  spec and the engines' deterministic results — independent of shard
  count, resume points and append order — which is what the resumability
  tests assert byte-for-byte.

What a store file holds is decided in one place, :class:`StoreScan`: each
cell's first valid record counts, and a later record of that cell with
another fingerprint or canonical index refuses the whole file.  The store
open, the sidecar index, the streamed summary, compaction and the merge
all read store files through it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

from repro.metrics.report import SCHEMA_VERSION, CostReport
from repro.sweeps.spec import cell_key

#: Version of the store line layout.  Bump on any incompatible change;
#: loading skips (and a resumed sweep recomputes) lines from other layouts.
STORE_VERSION = 1


@dataclass(frozen=True)
class SweepRecord:
    """One completed cell: coordinates, runner fingerprint, cost report.

    Attributes:
        sweep_id: the owning sweep's registry id.
        cell_index: the cell's position in the sweep's canonical order.
        scenario: corpus scenario name.
        engine: engine registry name.
        config_label: SpArch config label (``"-"`` for baselines).
        key: the experiment runner's point fingerprint — the identity the
            runner memoises the report under, linking store records to the
            shared simulation memo (and letting the driver detect a store
            written under different parameters).
        report: the cell's ``CostReport.to_dict()`` payload, verbatim.
    """

    sweep_id: str
    cell_index: int
    scenario: str
    engine: str
    config_label: str
    key: str
    report: dict

    @property
    def cell(self) -> tuple[str, str, str, str]:
        """The record's cell identity (sweep, scenario, engine, config)."""
        return (self.sweep_id, self.scenario, self.engine, self.config_label)

    @property
    def report_key(self) -> str:
        """The record's report key, ``scenario|engine|config``."""
        return cell_key(self.scenario, self.engine, self.config_label)

    def to_line(self) -> str:
        """Serialise to one canonical JSONL line (sorted keys, ``\\n``)."""
        payload = {
            "store_version": STORE_VERSION,
            "sweep_id": self.sweep_id,
            "cell_index": self.cell_index,
            "scenario": self.scenario,
            "engine": self.engine,
            "config_label": self.config_label,
            "key": self.key,
            "report": self.report,
        }
        return json.dumps(payload, sort_keys=True) + "\n"

    def cost_report(self) -> CostReport:
        """Deserialise the embedded report."""
        return CostReport.from_dict(self.report)


class CellEntry(NamedTuple):
    """One recorded cell's *identity*: coordinates plus runner fingerprint.

    The lightweight view resume and grid-consistency checks work from —
    everything a :class:`SweepRecord` knows except the report payload, so
    index-backed stores can answer "which cells are done, under which
    key?" without hydrating a single report from the JSONL.
    """

    sweep_id: str
    scenario: str
    engine: str
    config_label: str
    key: str
    cell_index: int

    @property
    def cell(self) -> tuple[str, str, str, str]:
        """The cell identity tuple, as :attr:`SweepRecord.cell` shapes it."""
        return (self.sweep_id, self.scenario, self.engine, self.config_label)

    @property
    def report_key(self) -> str:
        """The cell's report key, ``scenario|engine|config``."""
        return cell_key(self.scenario, self.engine, self.config_label)


def parse_line(line: str) -> SweepRecord | None:
    """Parse one store line; ``None`` marks it *not done* (recompute).

    Returns ``None`` for blank lines, torn/corrupt JSON (a kill mid-append),
    other store layouts, and reports written under a different
    :data:`~repro.metrics.report.SCHEMA_VERSION` — stale entries rotate by
    recomputation, never by coercion.
    """
    line = line.strip()
    if not line:
        return None
    try:
        payload = json.loads(line)
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("store_version") != STORE_VERSION:
        return None
    report = payload.get("report")
    if (not isinstance(report, dict)
            or report.get("schema_version") != SCHEMA_VERSION):
        return None
    try:
        return SweepRecord(
            sweep_id=str(payload["sweep_id"]),
            cell_index=int(payload["cell_index"]),
            scenario=str(payload["scenario"]),
            engine=str(payload["engine"]),
            config_label=str(payload["config_label"]),
            key=str(payload["key"]),
            report=report,
        )
    except (KeyError, TypeError, ValueError):
        return None


def conflicting_store_error(source: str | os.PathLike,
                            cell: tuple[str, str, str, str]) -> ValueError:
    """The refusal of two records of one cell that disagree.

    They carry different fingerprints or canonical indices, so they were
    written under different parameters or spec revisions.  A store the
    driver wrote never holds such a pair (it refuses to append under other
    parameters), so readers refuse the file rather than keep one side.
    ``source`` names where the later record was found: a store file, or
    the records a merge was given.  Every reader of a store file and both
    merges raise this.
    """
    return ValueError(
        f"{source}: conflicting records for cell {'|'.join(cell[1:])!r} "
        f"of sweep {cell[0]!r} — results written under different "
        f"parameters or spec revisions cannot be mixed"
    )


class StoreScan:
    """One pass over a store file under the first-record rule.

    Iterating opens ``path`` (a missing file raises ``FileNotFoundError``),
    reads its lines as bytes from offset ``start`` and yields
    ``(record, start, end)`` for each cell's first valid record, where
    ``[start, end)`` is the line's byte range.  A later valid record of a
    seen cell is a skipped duplicate when it carries the same fingerprint
    and canonical index, and refuses the file
    (:func:`conflicting_store_error`) when it does not.  Lines that do not
    parse are skipped (:func:`parse_line`; bytes that are not UTF-8 read
    as replacement characters).  An unterminated last line that does not
    parse is a torn tail: the scan stops before it, so ``end`` never
    passes it.  Iterating again continues from ``end``.

    Args:
        path: the store file.
        start: byte offset of a line start to scan from.
        cells: ``cell -> (key, cell_index)`` of cells already seen, e.g.
            those an index holds or an earlier merge input recorded; the
            scan adds every new cell to this dict.

    Attributes:
        cells: the seeded dict, holding every cell seen so far.
        end: byte offset after the last line consumed.
        duplicates: skipped duplicate records.
        invalid: lines that did not parse, a torn tail included.
    """

    def __init__(self, path: str | os.PathLike, *, start: int = 0,
                 cells: dict[tuple[str, str, str, str],
                             tuple[str, int]] | None = None) -> None:
        self.path = path
        self.cells = {} if cells is None else cells
        self.end = start
        self.duplicates = 0
        self.invalid = 0

    def __iter__(self) -> Iterator[tuple[SweepRecord, int, int]]:
        with open(self.path, "rb") as handle:
            handle.seek(self.end)
            for raw in handle:
                start = self.end
                record = parse_line(raw.decode("utf-8", errors="replace"))
                if record is None:
                    self.invalid += 1
                    if not raw.endswith(b"\n"):
                        return  # a torn tail waits for its newline
                self.end += len(raw)
                if record is None:
                    continue
                seen = self.cells.get(record.cell)
                if seen is None:
                    self.cells[record.cell] = (record.key, record.cell_index)
                    yield record, start, self.end
                elif seen == (record.key, record.cell_index):
                    self.duplicates += 1
                else:
                    raise conflicting_store_error(self.path, record.cell)


class ResultStore:
    """Append-only record store, optionally persisted as a JSONL file.

    Args:
        path: JSONL file location; an existing file's valid records are
            loaded (that is what makes a sweep resumable).  ``None`` keeps
            the store in memory only, for one process lifetime.
        fsync: flush each appended record to stable storage before
            returning.  Off by default (a torn tail already rotates by
            recomputation); the fabric coordinator turns it on when asked
            to survive power loss, not just process death.
        index: read the file through the sqlite sidecar index
            (:mod:`repro.sweeps.index`).  On by default for file-backed
            stores: the store opens *lazily* — cell identities come from
            the index, and the first read of :attr:`records` scans the
            JSONL for this store's cells, so opening a million-cell store
            for resume no longer parses every line.  Appends write the
            JSONL only; the index ingests them (and any other writer's)
            the next time it is read.  The index is derived data: if it
            is missing it is rebuilt (one scan, amortised over every later
            open), and if sqlite is unavailable the store silently falls
            back to the eager JSONL-scanning behaviour — the JSONL alone
            is always enough.
    """

    def __init__(self, path: str | os.PathLike | None = None, *,
                 fsync: bool = False, index: bool = True) -> None:
        self._path = Path(path) if path is not None else None
        self._fsync = fsync
        self._records: list[SweepRecord] | None = []
        self._cells: dict[tuple[str, str, str, str],
                          tuple[str, int]] = {}
        self._keys: set[str] = set()
        self._needs_newline = False
        self._index = None
        if self._path is None:
            return
        if index:
            self._index = self._open_index()
        if not self._path.is_file():
            return
        if self._index is not None:
            # Lazy open: identities from the (just refreshed) index;
            # records wait for the first read of ``records``.
            self._records = None
            for entry in self._index.cell_entries():
                self._cells[entry.cell] = (entry.key, entry.cell_index)
                self._keys.add(entry.key)
        else:
            scan = StoreScan(self._path)
            self._records = [record for record, _, _ in scan]
            self._cells = scan.cells
            self._keys = {key for key, _ in self._cells.values()}
        self._needs_newline = self._tail_unterminated()

    def _open_index(self):
        """Open and refresh the sidecar; ``None`` when sqlite can't."""
        from repro.sweeps.index import IndexUnavailable, SweepIndex

        try:
            store_index = SweepIndex(self._path)
        except IndexUnavailable:
            return None
        try:
            store_index.refresh()
        except IndexUnavailable:
            store_index.close()
            return None
        except BaseException:
            # A conflicting (mixed) store is refused exactly as the eager
            # loader refuses it — don't leak the connection on the way out.
            store_index.close()
            raise
        return store_index

    def _tail_unterminated(self) -> bool:
        """Whether the file ends without a newline (torn/in-flight tail).

        A kill mid-append leaves a torn final line with no newline; the
        first append after resume must not glue its record onto that
        fragment (which would silently corrupt *both* lines).
        """
        try:
            size = os.path.getsize(self._path)
            if size == 0:
                return False
            with open(self._path, "rb") as handle:
                handle.seek(size - 1)
                return handle.read(1) != b"\n"
        except OSError:
            return False

    def close(self) -> None:
        """Release the sidecar index connection (appends keep working)."""
        if self._index is not None:
            self._index.close()
            self._index = None

    # ------------------------------------------------------------------
    @property
    def path(self) -> Path | None:
        return self._path

    @property
    def index(self):
        """The live :class:`~repro.sweeps.index.SweepIndex`, if any (its
        queries catch up with the JSONL first)."""
        return self._index

    @property
    def records(self) -> list[SweepRecord]:
        """The loaded/appended records, in arrival order (a copy).

        A lazily opened store scans the JSONL on first read and keeps only
        its own cells (those in the file at open plus its own appends, in
        file order): what an eager open would hold, whatever other
        writers appended meanwhile.
        """
        if self._records is None:
            self._records = [record for record, _, _ in StoreScan(self._path)
                             if record.cell in self._cells]
        return list(self._records)

    def cell_entries(self) -> list[CellEntry]:
        """Every recorded cell's identity, in arrival order.

        The resume-path view: on an index-backed store this never reads
        the JSONL, so restarting against a huge store is O(cells already
        known) in sqlite, not a full re-parse.
        """
        return [CellEntry(*cell, key, cell_index)
                for cell, (key, cell_index) in self._cells.items()]

    @property
    def done_cells(self) -> set[tuple[str, str, str, str]]:
        """Cell identities of every recorded cell (a copy)."""
        return set(self._cells)

    @property
    def done_keys(self) -> set[str]:
        """Runner fingerprints of every recorded cell (a copy)."""
        return set(self._keys)

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, key: str) -> bool:
        """Whether any recorded cell carries this runner fingerprint."""
        return key in self._keys

    # ------------------------------------------------------------------
    def append(self, record: SweepRecord) -> None:
        """Append one completed cell, flushed to disk immediately.

        Duplicate *cells* are ignored (each grid cell has exactly one
        record); distinct cells sharing a fingerprint are all recorded —
        the computation deduplicates in the runner's memo, the grid never
        loses a point.

        The on-disk append is one ``write()`` of the whole record to an
        ``O_APPEND`` descriptor: concurrent writers (fabric workers, two
        shard runs sharing a store) each land their record at the end of
        the file atomically, so records from different processes never
        interleave *within* a line — the worst a concurrent schedule can
        produce is duplicate whole records, which loading and merging
        already deduplicate.
        """
        if record.cell in self._cells:
            return
        if self._records is not None:
            self._records.append(record)
        self._cells[record.cell] = (record.key, record.cell_index)
        self._keys.add(record.key)
        if self._path is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            data = record.to_line().encode("utf-8")
            if self._needs_newline:
                # Terminate the torn line a kill left behind (within the
                # same atomic write), so it stays an isolated (skipped)
                # fragment instead of corrupting this record too.
                data = b"\n" + data
                self._needs_newline = False
            descriptor = os.open(self._path,
                                 os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                                 0o644)
            try:
                # One write() call for the whole record: O_APPEND makes it
                # land atomically at the end of the file.  (Regular-file
                # writes of record-sized buffers do not split; the loop
                # merely guarantees completeness if one ever did.)
                view = memoryview(data)
                while view:
                    view = view[os.write(descriptor, view):]
                if self._fsync:
                    os.fsync(descriptor)
            finally:
                os.close(descriptor)

    def reports(self) -> dict[str, CostReport]:
        """Every record's report, keyed by ``scenario|engine|config``.

        Raises ``ValueError`` for stores shared by several sweeps — filter
        :attr:`records` by ``sweep_id`` first.
        """
        return records_to_reports(self.records)


def require_single_sweep(records: list[SweepRecord]) -> None:
    """Reject record sets spanning more than one sweep.

    The per-cell report keys and the (engine, config) summary groups are
    meaningful within one sweep's grid; silently collapsing or mixing the
    cells of two sweeps sharing a store would misattribute results.
    Callers holding a shared store filter by ``sweep_id`` first (as the
    summarise CLI does).
    """
    sweep_ids = {record.sweep_id for record in records}
    if len(sweep_ids) > 1:
        raise ValueError(
            f"records span multiple sweeps ({', '.join(sorted(sweep_ids))});"
            f" filter by sweep_id before keying or summarising them"
        )


def records_to_reports(records: list[SweepRecord]) -> dict[str, CostReport]:
    """Deserialise records into ``{"scenario|engine|config": report}``.

    The one definition of the report-key format, shared by
    :meth:`ResultStore.reports` and the sweep summaries of
    :mod:`repro.sweeps.driver`.
    Records must belong to one sweep (see :func:`require_single_sweep`).
    """
    require_single_sweep(records)
    return {record.report_key: record.cost_report() for record in records}


# ----------------------------------------------------------------------
# Streaming merge (bounded memory for million-cell stores)
# ----------------------------------------------------------------------
def merge_files_to(paths: list[str | os.PathLike],
                   out_path: str | os.PathLike) -> int:
    """Stream shard stores into one canonical store file.

    Byte-identical output to
    ``write_records(out_path, merge_files(paths))`` — same sort order, same
    per-cell deduplication, same conflict refusal — but only a
    *coordinate index* (cell → fingerprint, canonical index, byte range)
    is ever held in memory.  Pass one: one :class:`StoreScan` per file,
    sharing its cells, keeps each cell's first valid record location
    across all inputs.  Pass two: revisit the surviving locations in
    canonical order and re-serialise each record through
    :meth:`SweepRecord.to_line`.

    Returns:
        The number of records written.

    Raises:
        FileNotFoundError: when a named shard store does not exist.
        ValueError: on conflicting records of one cell (see
            :func:`conflicting_store_error`) or when a store file changes
            between the two passes.
    """
    # Pass 1: coordinate index only — no report payload is retained.
    cells: dict[tuple[str, str, str, str], tuple[str, int]] = {}
    locations: dict[tuple[str, str, str, str], tuple[Path, int, int]] = {}
    for path in map(Path, paths):
        if not path.is_file():
            raise FileNotFoundError(f"result store not found: {path}")
        for record, start, end in StoreScan(path, cells=cells):
            locations[record.cell] = (path, start, end)

    ordered = sorted(locations, key=lambda cell: (cell[0], cells[cell][1],
                                                  cells[cell][0]))

    # Pass 2: seek back to each surviving line and re-serialise it.
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    handles: dict[Path, object] = {}
    try:
        with open(out_path, "w", encoding="utf-8") as sink:
            for cell in ordered:
                path, start, end = locations[cell]
                handle = handles.get(path)
                if handle is None:
                    handle = handles[path] = open(path, "rb")
                handle.seek(start)
                record = parse_line(handle.read(end - start).decode(
                    "utf-8", errors="replace"))
                if record is None or record.cell != cell:
                    raise ValueError(
                        f"result store {path} changed while being merged"
                    )
                sink.write(record.to_line())
    finally:
        for handle in handles.values():
            handle.close()
    return len(ordered)


# ----------------------------------------------------------------------
# Canonical merge
# ----------------------------------------------------------------------
def merge_records(records: list[SweepRecord]) -> list[SweepRecord]:
    """Canonicalise records: sort by canonical cell order, one per cell.

    Duplicate records of one *cell* (the same file merged twice, a race
    between concurrent writers) collapse to the first in sorted order;
    distinct cells always survive, even when they share a fingerprint.
    The result is independent of input order, shard split and resume
    history.

    Raises:
        ValueError: when two records of one cell carry *different*
            fingerprints or canonical indices — the inputs were produced
            under different parameters (corpus scale, forced backend) or
            spec revisions (added/reordered scenarios), and collapsing
            them would quietly mix incompatible grids; mixed stores are
            refused, never merged.
    """
    merged: dict[tuple[str, str, str, str], SweepRecord] = {}
    for record in sorted(records,
                         key=lambda r: (r.sweep_id, r.cell_index, r.key)):
        existing = merged.get(record.cell)
        if existing is None:
            merged[record.cell] = record
        elif (existing.key != record.key
              or existing.cell_index != record.cell_index):
            raise conflicting_store_error("merge input", record.cell)
    return sorted(merged.values(),
                  key=lambda r: (r.sweep_id, r.cell_index, r.key))


def merge_files(paths: list[str | os.PathLike]) -> list[SweepRecord]:
    """Load shard stores and merge them canonically.

    Raises:
        FileNotFoundError: when a named store does not exist — a merge
            quietly missing a shard would produce a plausible-looking but
            incomplete result set, so a typo'd path must fail loudly
            (unlike :class:`ResultStore`, whose missing file legitimately
            means "fresh store").
    """
    records: list[SweepRecord] = []
    for path in paths:
        if not Path(path).is_file():
            raise FileNotFoundError(f"result store not found: {path}")
        records.extend(ResultStore(path).records)
    return merge_records(records)


def render_records(records: list[SweepRecord]) -> str:
    """The canonical byte content of a store holding ``records``."""
    return "".join(record.to_line() for record in records)


def write_records(path: str | os.PathLike, records: list[SweepRecord]
                  ) -> None:
    """Write a canonical (merged) store file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_records(records))
