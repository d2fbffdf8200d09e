"""SQLite sidecar index over a JSONL result store: zero-scan summaries.

A million-cell :class:`~repro.sweeps.store.ResultStore` is cheap to
*append* to but expensive to *ask*: every open, resume, ``summarise`` and
``watch`` pass used to re-parse the whole JSONL.  This module keeps a
**derived** sqlite database next to the store file (``<store>.index.sqlite``,
WAL mode) with one row per recorded cell:

* the cell coordinates (``sweep_id``, ``scenario``, ``engine``,
  ``config_label``, canonical ``cell_index``) and the runner fingerprint
  ``key`` — everything resume and grid-consistency checks need;
* the record's ``(offset, length)`` byte range in the JSONL — everything
  lazy hydration needs to read one record without scanning the file;
* denormalised summary scalars (cycles, runtime, GFLOP/s and its log,
  DRAM bytes total and by category, energy, op counts) — everything the
  summary/filter/top-k queries need, so they never touch the JSONL.

The contract (DESIGN.md §9): **the JSONL stays the single source of
truth**.  The index is derivable from it alone, is rebuilt whenever it
cannot prove itself consistent (version mismatch, store truncated below
the indexed high-water mark, rewritten head bytes), and may be deleted at
any time — the next open simply rebuilds it.  Nothing byte-parity-critical
(canonical merges, compaction output) ever reads the index.

Consistency protocol:

* ``meta.hwm`` is the byte offset up to which the JSONL has been ingested
  (whole lines only; a torn tail stays below the mark until its newline
  lands).  ``refresh`` ingests exactly ``[hwm, size)`` — the incremental
  catch-up that makes reopening a huge store cheap.
* ``meta.head_len`` / ``meta.head_hash`` fingerprint the first (up to)
  64 KiB of the indexed prefix.  Appends never change those bytes, so a
  mismatch means the file was rewritten underneath the index (an external
  ``sort``, a hand edit) and the index rebuilds from scratch.
* ``meta.generation`` counts compactions
  (:func:`repro.sweeps.compact.compact_store` bumps it atomically with
  its rebuild); watchers use it to notice that rowids and offsets were
  reassigned.
* every mutation (row inserts + meta update) commits in one
  ``BEGIN IMMEDIATE`` transaction, so a kill mid-append leaves either the
  old or the new state, never a half-indexed record — and a JSONL append
  whose index transaction never ran is simply above ``hwm``, picked up by
  the next catch-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sqlite3
from pathlib import Path
from typing import Iterator

from repro.sweeps.spec import cell_key
from repro.sweeps.store import CellEntry, SweepRecord, parse_line
from repro.utils.reporting import Table

#: Version of the index layout.  Bump on any incompatible schema change;
#: an index from another version silently rebuilds (it is derived data).
INDEX_VERSION = 1

#: Bytes of the indexed prefix fingerprinted against external rewrites.
#: Appends beyond the cap never change the fingerprinted range, so the
#: hash is frozen once the store outgrows it.
HEAD_CAP = 65536

#: Floor applied to per-cell GFLOP/s before the log — the same floor
#: :func:`repro.experiments.designspace.geomean_gflops` applies, so
#: index-served geomeans agree with the scan paths.
GEOMEAN_FLOOR = 1e-12

#: Scalar columns ``summarise --sort`` / ``--where`` may name.
METRIC_COLUMNS = ("gflops", "cycles", "runtime_seconds", "dram_bytes",
                  "energy_joules", "output_nnz", "multiplications",
                  "additions")

#: Coordinate columns ``summarise --where`` may filter on.
WHERE_COLUMNS = ("sweep_id", "scenario", "engine", "config_label", "status")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    sweep_id        TEXT NOT NULL,
    scenario        TEXT NOT NULL,
    engine          TEXT NOT NULL,
    config_label    TEXT NOT NULL,
    cell_index      INTEGER NOT NULL,
    key             TEXT NOT NULL,
    report_key      TEXT NOT NULL,
    offset          INTEGER NOT NULL,
    length          INTEGER NOT NULL,
    status          TEXT NOT NULL DEFAULT 'done',
    cycles          INTEGER NOT NULL,
    runtime_seconds REAL NOT NULL,
    gflops          REAL NOT NULL,
    log_gflops      REAL NOT NULL,
    dram_bytes      INTEGER NOT NULL,
    traffic         TEXT NOT NULL,
    energy_joules   REAL NOT NULL,
    output_nnz      INTEGER NOT NULL,
    multiplications INTEGER NOT NULL,
    additions       INTEGER NOT NULL,
    UNIQUE (sweep_id, scenario, engine, config_label)
);
CREATE INDEX IF NOT EXISTS cells_by_sweep ON cells (sweep_id, cell_index);
-- Covering index for summarise: the GROUP BY (engine, config_label)
-- aggregation reads every referenced column straight from this index,
-- never touching the wide cells rows (whose traffic blobs dominate the
-- table's bytes) — a million-cell summary stays tens of milliseconds.
CREATE INDEX IF NOT EXISTS cells_summary ON cells (
    sweep_id, engine, config_label, log_gflops, dram_bytes,
    runtime_seconds, energy_joules, cell_index
);
"""


class IndexUnavailable(Exception):
    """The sidecar cannot be opened or maintained (locked dir, corrupt
    beyond repair, read-only filesystem).  Callers fall back to the
    scan paths — the JSONL is always sufficient on its own."""


def index_path(store_path: str | os.PathLike) -> str:
    """The sidecar database written next to a store file."""
    return f"{os.fspath(store_path)}.index.sqlite"


def drop_index(store_path: str | os.PathLike) -> None:
    """Delete a store's sidecar index (and its WAL companions), if any.

    Always safe: the index is derived data and the next open rebuilds it.
    """
    base = index_path(store_path)
    for suffix in ("", "-wal", "-shm"):
        try:
            os.unlink(base + suffix)
        except OSError:
            pass


def _conflict_error(path, cell: tuple[str, str, str, str]) -> ValueError:
    """Same wording as the store loader: a mixed store is refused."""
    return ValueError(
        f"store {path} holds conflicting records for cell "
        f"{'|'.join(cell[1:])!r} of sweep {cell[0]!r} — it mixes results "
        f"written under different parameters or spec revisions"
    )


def summary_columns(report: dict) -> dict:
    """The denormalised scalar columns for one record's report payload.

    Mirrors the :class:`~repro.metrics.report.CostReport` derived-metric
    formulas exactly (``gflops = flops / runtime / 1e9`` over the integer
    op counters) but works on the raw payload dict, so indexing never
    requires a full report deserialisation round trip.
    """
    multiplications = int(report.get("multiplications", 0))
    additions = int(report.get("additions", 0))
    runtime = float(report.get("runtime_seconds", 0.0))
    flops = multiplications + additions
    gflops = flops / runtime / 1e9 if runtime > 0 else 0.0
    traffic = report.get("traffic") or {}
    return {
        "cycles": int(report.get("cycles", 0)),
        "runtime_seconds": runtime,
        "gflops": gflops,
        "log_gflops": math.log(max(gflops, GEOMEAN_FLOOR)),
        "dram_bytes": sum(int(v) for v in traffic.values()),
        "traffic": json.dumps(
            {str(k): int(v) for k, v in traffic.items()}, sort_keys=True),
        "energy_joules": float(report.get("energy_joules", 0.0)),
        "output_nnz": int(report.get("output_nnz", 0)),
        "multiplications": multiplications,
        "additions": additions,
    }


def _row_for(record: SweepRecord, offset: int, length: int) -> tuple:
    columns = summary_columns(record.report)
    return (record.sweep_id, record.scenario, record.engine,
            record.config_label, record.cell_index, record.key,
            record.report_key, offset, length, "done",
            columns["cycles"], columns["runtime_seconds"],
            columns["gflops"], columns["log_gflops"],
            columns["dram_bytes"], columns["traffic"],
            columns["energy_joules"], columns["output_nnz"],
            columns["multiplications"], columns["additions"])


_INSERT = """
INSERT OR IGNORE INTO cells (
    sweep_id, scenario, engine, config_label, cell_index, key, report_key,
    offset, length, status, cycles, runtime_seconds, gflops, log_gflops,
    dram_bytes, traffic, energy_joules, output_nnz, multiplications,
    additions
) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
"""


class SweepIndex:
    """One store's sidecar index: incremental maintenance + queries.

    Args:
        store_path: the JSONL store file the index shadows (the database
            lives at :func:`index_path` next to it).

    Raises:
        IndexUnavailable: when the database cannot be created or opened —
            callers fall back to scanning the JSONL.
    """

    def __init__(self, store_path: str | os.PathLike) -> None:
        self._store_path = Path(store_path)
        self._db_path = Path(index_path(store_path))
        self._conn = self._connect()

    # ------------------------------------------------------------------
    # Connection / schema
    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        try:
            self._db_path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self._db_path, timeout=30.0,
                                   isolation_level=None,
                                   check_same_thread=False)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            return conn
        except sqlite3.Error:
            # A corrupt sidecar is not an error condition — it is derived
            # data.  Drop it and start over; only an unusable location
            # (permissions, exotic filesystems) gives up.
            try:
                drop_index(self._store_path)
                conn = sqlite3.connect(self._db_path, timeout=30.0,
                                       isolation_level=None,
                                       check_same_thread=False)
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.executescript(_SCHEMA)
                return conn
            except (sqlite3.Error, OSError) as exc:
                raise IndexUnavailable(str(exc)) from exc

    def close(self) -> None:
        try:
            self._conn.close()
        except sqlite3.Error:  # pragma: no cover - close is best effort
            pass

    @property
    def store_path(self) -> Path:
        return self._store_path

    # ------------------------------------------------------------------
    # Meta
    # ------------------------------------------------------------------
    def _meta(self) -> dict[str, str]:
        return dict(self._conn.execute("SELECT key, value FROM meta"))

    def _set_meta(self, **values) -> None:
        self._conn.executemany(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            [(key, str(value)) for key, value in values.items()])

    @property
    def generation(self) -> int:
        """Compaction generation counter (0 for a never-compacted store)."""
        return int(self._meta().get("generation", 0))

    @property
    def high_water(self) -> int:
        """Byte offset of the JSONL prefix the index has ingested."""
        return int(self._meta().get("hwm", -1))

    def _store_size(self) -> int:
        try:
            return os.path.getsize(self._store_path)
        except OSError:
            return 0

    def _head_fingerprint(self, hwm: int) -> tuple[int, str]:
        head_len = min(hwm, HEAD_CAP)
        if head_len <= 0:
            return 0, ""
        with open(self._store_path, "rb") as handle:
            head = handle.read(head_len)
        return head_len, hashlib.sha256(head).hexdigest()

    def _head_matches(self, meta: dict[str, str]) -> bool:
        head_len = int(meta.get("head_len", 0))
        if head_len <= 0:
            return True
        if self._store_size() < head_len:
            return False
        try:
            with open(self._store_path, "rb") as handle:
                head = handle.read(head_len)
        except OSError:
            return False
        return hashlib.sha256(head).hexdigest() == meta.get("head_hash", "")

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def is_fresh(self) -> bool:
        """Whether every complete line of the JSONL is already indexed.

        (A torn, newline-less tail fragment keeps ``hwm`` just below the
        file size; the store is still fully indexed in the record sense.)
        """
        meta = self._meta()
        if (meta.get("index_version") != str(INDEX_VERSION)
                or "hwm" not in meta):
            return False
        hwm = int(meta["hwm"])
        size = self._store_size()
        if hwm > size or not self._head_matches(meta):
            return False
        if hwm == size:
            return True
        # Only an unterminated (torn or in-flight) fragment may remain.
        with open(self._store_path, "rb") as handle:
            handle.seek(hwm)
            tail = handle.read(size - hwm)
        return b"\n" not in tail

    def refresh(self) -> None:
        """Bring the index up to date: incremental catch-up, or rebuild.

        Catch-up ingests only ``[hwm, size)``; a rebuild (version change,
        truncated or rewritten store) re-ingests from byte 0.  Raises
        ``ValueError`` for stores holding conflicting records of one cell
        (the same refusal the eager loader makes) and
        ``IndexUnavailable`` when sqlite itself fails.
        """
        try:
            self._refresh()
        except sqlite3.Error as exc:
            raise IndexUnavailable(str(exc)) from exc

    def _refresh(self) -> None:
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            meta = self._meta()
            size = self._store_size()
            rebuild = (meta.get("index_version") != str(INDEX_VERSION)
                       or "hwm" not in meta
                       or int(meta["hwm"]) > size
                       or not self._head_matches(meta))
            if rebuild:
                self._conn.execute("DELETE FROM cells")
                generation = int(meta.get("generation", 0))
                self._ingest_locked(0, size)
                self._set_meta(index_version=INDEX_VERSION,
                               generation=generation)
            elif int(meta["hwm"]) < size:
                self._ingest_locked(int(meta["hwm"]), size)
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    def rebuild(self, *, bump_generation: bool = False) -> None:
        """Re-derive every row from the JSONL alone.

        Args:
            bump_generation: increment the compaction generation counter —
                passed by :func:`repro.sweeps.compact.compact_store` so
                watchers notice that offsets/rowids were reassigned.
        """
        try:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                generation = int(self._meta().get("generation", 0))
                if bump_generation:
                    generation += 1
                self._conn.execute("DELETE FROM cells")
                self._ingest_locked(0, self._store_size())
                self._set_meta(index_version=INDEX_VERSION,
                               generation=generation)
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        except sqlite3.Error as exc:
            raise IndexUnavailable(str(exc)) from exc

    def _ingest_locked(self, start: int, size: int) -> None:
        """Ingest ``[start, size)`` of the JSONL (caller holds the txn).

        Only whole lines advance the high-water mark; an unterminated tail
        is ingested *if it parses as a valid record* (matching the eager
        loader, which also accepts a newline-less final record) and left
        below the mark otherwise, so a torn fragment is re-examined once
        its terminator lands.
        """
        hwm = start
        if size > start:
            known = {
                (row[0], row[1], row[2], row[3]): (row[4], row[5])
                for row in self._conn.execute(
                    "SELECT sweep_id, scenario, engine, config_label, "
                    "key, cell_index FROM cells")
            }
            rows: list[tuple] = []
            with open(self._store_path, "rb") as handle:
                handle.seek(start)
                offset = start
                for raw in handle:
                    length = len(raw)
                    terminated = raw.endswith(b"\n")
                    record = parse_line(
                        raw.decode("utf-8", errors="replace"))
                    if record is None:
                        if not terminated:
                            break  # torn tail: wait for its newline
                    else:
                        existing = known.get(record.cell)
                        if existing is None:
                            known[record.cell] = (record.key,
                                                  record.cell_index)
                            rows.append(_row_for(
                                record, offset,
                                length - 1 if terminated else length))
                        elif existing != (record.key, record.cell_index):
                            raise _conflict_error(self._store_path,
                                                  record.cell)
                    offset += length
                    hwm = offset
                    if len(rows) >= 2048:
                        self._conn.executemany(_INSERT, rows)
                        rows.clear()
            if rows:
                self._conn.executemany(_INSERT, rows)
        head_len, head_hash = self._head_fingerprint(hwm)
        self._set_meta(hwm=hwm, head_len=head_len, head_hash=head_hash)

    def note_append(self, record: SweepRecord, offset: int, length: int
                    ) -> None:
        """Index one record the caller just appended at ``offset``.

        The common case (single writer) inserts one row and advances the
        high-water mark in one transaction.  If other writers appended
        between the mark and ``offset`` (a shared store), the gap is
        ingested first so the mark never skips un-indexed bytes.
        """
        try:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                hwm = int(self._meta().get("hwm", 0))
                if offset > hwm:
                    # Another writer's records landed first; ingest them
                    # so everything below the new mark is indexed.
                    self._ingest_gap_locked(hwm, offset)
                existing = self._conn.execute(
                    "SELECT key, cell_index FROM cells WHERE sweep_id = ? "
                    "AND scenario = ? AND engine = ? AND config_label = ?",
                    record.cell).fetchone()
                if existing is None:
                    self._conn.execute(_INSERT, _row_for(record, offset,
                                                         length))
                elif tuple(existing) != (record.key, record.cell_index):
                    raise _conflict_error(self._store_path, record.cell)
                end = offset + length + 1  # the record plus its newline
                if end > hwm:
                    head_len, head_hash = self._head_fingerprint(end)
                    self._set_meta(hwm=end, head_len=head_len,
                                   head_hash=head_hash)
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        except sqlite3.Error as exc:
            raise IndexUnavailable(str(exc)) from exc

    def _ingest_gap_locked(self, start: int, end: int) -> None:
        """Ingest whole lines of ``[start, end)`` written by other hands."""
        with open(self._store_path, "rb") as handle:
            handle.seek(start)
            offset = start
            rows: list[tuple] = []
            while offset < end:
                raw = handle.readline()
                if not raw:
                    break
                length = len(raw)
                record = parse_line(raw.decode("utf-8", errors="replace"))
                if record is not None:
                    existing = self._conn.execute(
                        "SELECT key, cell_index FROM cells "
                        "WHERE sweep_id = ? AND scenario = ? "
                        "AND engine = ? AND config_label = ?",
                        record.cell).fetchone()
                    if existing is None:
                        rows.append(_row_for(
                            record, offset,
                            length - 1 if raw.endswith(b"\n") else length))
                    elif tuple(existing) != (record.key, record.cell_index):
                        raise _conflict_error(self._store_path, record.cell)
                offset += length
            if rows:
                self._conn.executemany(_INSERT, rows)

    # ------------------------------------------------------------------
    # Queries (all zero-scan: the JSONL is never opened)
    # ------------------------------------------------------------------
    def count(self, sweep_id: str | None = None) -> int:
        if sweep_id is None:
            return self._conn.execute(
                "SELECT COUNT(*) FROM cells").fetchone()[0]
        return self._conn.execute(
            "SELECT COUNT(*) FROM cells WHERE sweep_id = ?",
            (sweep_id,)).fetchone()[0]

    def sweep_counts(self) -> dict[str, int]:
        """Recorded cells per sweep, in first-appearance order."""
        return dict(self._conn.execute(
            "SELECT sweep_id, COUNT(*) FROM cells GROUP BY sweep_id "
            "ORDER BY MIN(rowid)"))

    def cell_entries(self, sweep_id: str | None = None) -> list[CellEntry]:
        """Every indexed cell's identity, in arrival (rowid) order."""
        query = ("SELECT sweep_id, scenario, engine, config_label, key, "
                 "cell_index FROM cells")
        args: tuple = ()
        if sweep_id is not None:
            query += " WHERE sweep_id = ?"
            args = (sweep_id,)
        return [CellEntry(*row) for row in
                self._conn.execute(query + " ORDER BY rowid", args)]

    def locations(self) -> list[tuple[tuple[str, str, str, str], int, int]]:
        """``(cell, offset, length)`` per record, in arrival order."""
        return [((row[0], row[1], row[2], row[3]), row[4], row[5])
                for row in self._conn.execute(
                    "SELECT sweep_id, scenario, engine, config_label, "
                    "offset, length FROM cells ORDER BY rowid")]

    def entries_after(self, rowid: int
                      ) -> list[tuple[int, CellEntry]]:
        """Rows appended after ``rowid`` — the watch tailing primitive."""
        return [(row[0], CellEntry(*row[1:])) for row in self._conn.execute(
            "SELECT rowid, sweep_id, scenario, engine, config_label, key, "
            "cell_index FROM cells WHERE rowid > ? ORDER BY rowid",
            (rowid,))]

    def max_rowid(self) -> int:
        value = self._conn.execute(
            "SELECT MAX(rowid) FROM cells").fetchone()[0]
        return int(value or 0)

    def _require_single_sweep(self) -> str | None:
        """The store's only sweep id (``None`` when empty); raise on >1."""
        sweeps = [row[0] for row in self._conn.execute(
            "SELECT DISTINCT sweep_id FROM cells ORDER BY sweep_id")]
        if len(sweeps) > 1:
            raise ValueError(
                f"records span multiple sweeps ({', '.join(sweeps)}); "
                f"filter by sweep_id before keying or summarising them"
            )
        return sweeps[0] if sweeps else None

    def summarise(self, *, sweep_id: str | None = None,
                  title: str = "sweep summary") -> Table:
        """Per-(engine, config) summary served entirely from the index.

        Same columns as :func:`repro.sweeps.driver.summarise_store_file`,
        without opening the JSONL: counts and sums come from SQL
        aggregation over the denormalised scalar columns, the geomean
        from the precomputed ``log_gflops``.  Groups are ordered by their
        first cell's canonical index — the order a canonically merged
        store's summary has, whatever order results arrived in.
        """
        if sweep_id is None:
            # Resolving the (required-unique) sweep id turns the scan
            # into a covering-index prefix seek on cells_summary.
            sweep_id = self._require_single_sweep()
        query = ("SELECT engine, config_label, COUNT(*), SUM(log_gflops), "
                 "SUM(dram_bytes), SUM(runtime_seconds), "
                 "SUM(energy_joules) FROM cells")
        args: tuple = ()
        if sweep_id is not None:
            query += " WHERE sweep_id = ?"
            args = (sweep_id,)
        query += " GROUP BY engine, config_label ORDER BY MIN(cell_index)"
        table = Table(
            title=title,
            columns=["engine", "config", "cells", "geomean GFLOP/s",
                     "DRAM [B]", "runtime [s]", "energy [J]"],
        )
        for engine, label, cells, log_sum, dram, runtime, energy in (
                self._conn.execute(query, args)):
            table.add_row(engine, label, cells,
                          math.exp(log_sum / cells), int(dram), runtime,
                          energy)
        return table

    def traffic_totals(self, *, sweep_id: str | None = None
                       ) -> dict[str, int]:
        """Total DRAM bytes by category across the indexed cells."""
        query = "SELECT traffic FROM cells"
        args: tuple = ()
        if sweep_id is not None:
            query += " WHERE sweep_id = ?"
            args = (sweep_id,)
        totals: dict[str, int] = {}
        for (payload,) in self._conn.execute(query, args):
            for category, num_bytes in json.loads(payload).items():
                totals[category] = totals.get(category, 0) + int(num_bytes)
        return totals

    def query_cells(self, *, where: dict[str, str] | None = None,
                    sort: str = "gflops", descending: bool = True,
                    limit: int | None = None) -> list[dict]:
        """Filter / top-k over individual cells, index-served.

        Args:
            where: equality filters over :data:`WHERE_COLUMNS`.
            sort: metric column ordering the result
                (:data:`METRIC_COLUMNS`).
            descending: highest first (the "top-k" sense) by default.
            limit: keep only the first ``limit`` rows.

        Returns:
            One dict per cell with its coordinates and every metric
            column, ordered by the sort metric (ties broken by arrival
            order, so results are deterministic).
        """
        if sort not in METRIC_COLUMNS:
            raise ValueError(
                f"unknown sort metric {sort!r}; choose from "
                f"{', '.join(METRIC_COLUMNS)}")
        clauses: list[str] = []
        args: list[str] = []
        for column, value in (where or {}).items():
            if column not in WHERE_COLUMNS:
                raise ValueError(
                    f"unknown filter column {column!r}; choose from "
                    f"{', '.join(WHERE_COLUMNS)}")
            clauses.append(f"{column} = ?")
            args.append(value)
        query = ("SELECT sweep_id, cell_index, scenario, engine, "
                 "config_label, key, status, cycles, runtime_seconds, "
                 "gflops, dram_bytes, energy_joules, output_nnz, "
                 "multiplications, additions FROM cells")
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += f" ORDER BY {sort} {'DESC' if descending else 'ASC'}, rowid"
        if limit is not None:
            if limit < 0:
                raise ValueError(f"limit must be non-negative, got {limit}")
            query += f" LIMIT {int(limit)}"
        names = ("sweep_id", "cell_index", "scenario", "engine",
                 "config_label", "key", "status", "cycles",
                 "runtime_seconds", "gflops", "dram_bytes",
                 "energy_joules", "output_nnz", "multiplications",
                 "additions")
        return [dict(zip(names, row))
                for row in self._conn.execute(query, args)]

    def dump_rows(self) -> list[tuple]:
        """Every cell row (without rowid), ordered by arrival — the
        comparison surface the index/JSONL consistency properties use."""
        return list(self._conn.execute(
            "SELECT sweep_id, scenario, engine, config_label, cell_index, "
            "key, report_key, offset, length, status, cycles, "
            "runtime_seconds, gflops, log_gflops, dram_bytes, traffic, "
            "energy_joules, output_nnz, multiplications, additions "
            "FROM cells ORDER BY rowid"))


# ----------------------------------------------------------------------
# Convenience wrappers
# ----------------------------------------------------------------------
def ensure_index(store_path: str | os.PathLike) -> SweepIndex:
    """Open a store's index, bringing it up to date (rebuild if needed).

    The cheap path — a store whose writer maintained the index — touches
    no JSONL bytes; a store without one pays a single scan, after which
    every later query on it is zero-scan.
    """
    index = SweepIndex(store_path)
    try:
        index.refresh()
    except BaseException:
        index.close()
        raise
    return index


def open_fresh_index(store_path: str | os.PathLike) -> SweepIndex | None:
    """Open a store's index only if it is already up to date.

    Returns ``None`` (never scans, never rebuilds) when there is no
    usable, current index — the caller decides whether building one is
    worth a scan.
    """
    if not os.path.exists(index_path(store_path)):
        return None
    try:
        index = SweepIndex(store_path)
    except IndexUnavailable:
        return None
    try:
        if index.is_fresh():
            return index
    except (OSError, sqlite3.Error):
        pass
    index.close()
    return None


def cells_table(rows: list[dict], *, title: str) -> Table:
    """Render :meth:`SweepIndex.query_cells` rows as a report table."""
    table = Table(
        title=title,
        columns=["cell", "index", "GFLOP/s", "cycles", "runtime [s]",
                 "DRAM [B]", "energy [J]", "nnz"],
    )
    for row in rows:
        table.add_row(
            cell_key(row["scenario"], row["engine"], row["config_label"]),
            row["cell_index"], row["gflops"], row["cycles"],
            row["runtime_seconds"], row["dram_bytes"],
            row["energy_joules"], row["output_nnz"],
        )
    return table


def iter_hydrated(store_path: str | os.PathLike, index: SweepIndex
                  ) -> Iterator[SweepRecord]:
    """Yield full records by seeking the index's (offset, length) pairs.

    Raises ``ValueError`` if a read-back record does not match its index
    row — the store changed underneath the index (it should be refreshed
    or rebuilt, and the JSONL trusted meanwhile).
    """
    locations = index.locations()
    with open(store_path, "rb") as handle:
        for cell, offset, length in locations:
            handle.seek(offset)
            record = parse_line(handle.read(length).decode("utf-8"))
            if record is None or record.cell != cell:
                raise ValueError(
                    f"store {store_path} changed underneath its index "
                    f"(cell {'|'.join(cell[1:])!r}); rebuild the index"
                )
            yield record
