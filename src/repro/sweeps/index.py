"""SQLite sidecar index over a JSONL result store: zero-scan summaries.

A million-cell :class:`~repro.sweeps.store.ResultStore` is cheap to
*append* to but expensive to *ask*: every open, resume and ``summarise``
used to re-parse the whole JSONL.  This module keeps a **derived** sqlite
database next to the store file (``<store>.index.sqlite``, WAL mode) with
one row per recorded cell:

* the cell coordinates (``sweep_id``, ``scenario``, ``engine``,
  ``config_label``, canonical ``cell_index``) and the runner fingerprint
  ``key`` — everything resume and grid-consistency checks need;
* denormalised summary scalars (cycles, runtime, GFLOP/s and its log,
  total DRAM bytes, energy, op counts) — everything the summary/filter/
  top-k queries need, so they never parse a report.

The contract (DESIGN.md §9): **the JSONL stays the single source of
truth**, and the sidecar is a read-side cache of it.  Writers append to
the JSONL only; every query first runs :meth:`SweepIndex.refresh`, which
catches up with whatever was appended since the last read (by any
writer), so each answer describes the current file.  The index is
derivable from the JSONL alone, is rebuilt whenever it cannot prove
itself consistent (version mismatch, store truncated below the indexed
high-water mark, rewritten head bytes), and may be deleted at any time —
the next read simply rebuilds it.  Nothing byte-parity-critical
(canonical merges, compaction output) ever reads the index, and no row
points into the JSONL: a lazily opened store reads its records by
scanning the file.  Ingestion reads through the store's one scanner
(:class:`~repro.sweeps.store.StoreScan`), seeded with the cells already
indexed, so the index holds exactly the cells every other reader sees.

Consistency protocol:

* ``meta.hwm`` is the byte offset up to which the JSONL has been ingested
  (whole lines only; a torn tail stays below the mark until its newline
  lands).  ``refresh`` ingests exactly ``[hwm, size)`` — the incremental
  catch-up that makes reading a huge store cheap.
* ``meta.head_len`` / ``meta.head_hash`` fingerprint the first (up to)
  64 KiB of the indexed prefix.  Appends never change those bytes, so a
  mismatch means the file was rewritten underneath the index (an external
  ``sort``, a hand edit) and the index rebuilds from scratch.
* every catch-up (row inserts + meta update) commits in one
  ``BEGIN IMMEDIATE`` transaction, so a kill mid-refresh leaves the old
  state, never a half-indexed record, and two readers catching up one
  sidecar serialise: the second finds the work done.
"""

from __future__ import annotations

import hashlib
import math
import os
import sqlite3
from pathlib import Path

from repro.experiments.designspace import GEOMEAN_FLOOR
from repro.sweeps.spec import cell_key
from repro.sweeps.store import CellEntry, StoreScan, SweepRecord
from repro.utils.reporting import Table

#: Version of the index layout.  Bump on any incompatible schema change;
#: an index from another version silently rebuilds, its cells table
#: recreated in the current layout (it is derived data).  Version 2
#: dropped the per-category ``traffic`` column, version 3 the records'
#: ``offset``/``length`` byte ranges.
INDEX_VERSION = 3

#: Bytes of the indexed prefix fingerprinted against external rewrites.
#: Appends beyond the cap never change the fingerprinted range, so the
#: hash is frozen once the store outgrows it.
HEAD_CAP = 65536

#: Scalar columns ``summarise --sort`` / ``--where`` may name.
METRIC_COLUMNS = ("gflops", "cycles", "runtime_seconds", "dram_bytes",
                  "energy_joules", "output_nnz", "multiplications",
                  "additions")

#: Coordinate columns ``summarise --where`` may filter on.
WHERE_COLUMNS = ("sweep_id", "scenario", "engine", "config_label", "status")

_META_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
)
"""

#: The cells table and its indexes, one statement each: a rebuild drops
#: the table and runs these inside its transaction.
_CELLS_SCHEMA = ("""
CREATE TABLE IF NOT EXISTS cells (
    sweep_id        TEXT NOT NULL,
    scenario        TEXT NOT NULL,
    engine          TEXT NOT NULL,
    config_label    TEXT NOT NULL,
    cell_index      INTEGER NOT NULL,
    key             TEXT NOT NULL,
    report_key      TEXT NOT NULL,
    status          TEXT NOT NULL DEFAULT 'done',
    cycles          INTEGER NOT NULL,
    runtime_seconds REAL NOT NULL,
    gflops          REAL NOT NULL,
    log_gflops      REAL NOT NULL,
    dram_bytes      INTEGER NOT NULL,
    energy_joules   REAL NOT NULL,
    output_nnz      INTEGER NOT NULL,
    multiplications INTEGER NOT NULL,
    additions       INTEGER NOT NULL,
    UNIQUE (sweep_id, scenario, engine, config_label)
)
""", """
CREATE INDEX IF NOT EXISTS cells_by_sweep ON cells (sweep_id, cell_index)
""", """
-- Covering index for summarise: the GROUP BY (engine, config_label)
-- aggregation reads every referenced column straight from this index,
-- never touching the cells rows, whose coordinate, key and report-key
-- strings make up most of the table's bytes — a million-cell summary
-- stays tens of milliseconds.
CREATE INDEX IF NOT EXISTS cells_summary ON cells (
    sweep_id, engine, config_label, log_gflops, dram_bytes,
    runtime_seconds, energy_joules, cell_index
)
""")


def _create_cells(conn: sqlite3.Connection) -> None:
    for statement in _CELLS_SCHEMA:
        conn.execute(statement)


class IndexUnavailable(Exception):
    """The sidecar cannot be opened or maintained (locked dir, corrupt
    beyond repair, read-only filesystem).  Callers fall back to the
    scan paths — the JSONL is always sufficient on its own."""


def index_path(store_path: str | os.PathLike) -> str:
    """The sidecar database written next to a store file."""
    return f"{os.fspath(store_path)}.index.sqlite"


def drop_index(store_path: str | os.PathLike) -> None:
    """Delete a store's sidecar index (and its WAL companions), if any.

    Always safe: the index is derived data and the next read rebuilds it.
    """
    base = index_path(store_path)
    for suffix in ("", "-wal", "-shm"):
        try:
            os.unlink(base + suffix)
        except OSError:
            pass


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
        "energy_joules": float(report.get("energy_joules", 0.0)),
        "output_nnz": int(report.get("output_nnz", 0)),
        "multiplications": multiplications,
        "additions": additions,
    }


def _row_for(record: SweepRecord) -> tuple:
    columns = summary_columns(record.report)
    return (record.sweep_id, record.scenario, record.engine,
            record.config_label, record.cell_index, record.key,
            record.report_key, "done",
            columns["cycles"], columns["runtime_seconds"],
            columns["gflops"], columns["log_gflops"],
            columns["dram_bytes"], columns["energy_joules"],
            columns["output_nnz"], columns["multiplications"],
            columns["additions"])


_INSERT = """
INSERT OR IGNORE INTO cells (
    sweep_id, scenario, engine, config_label, cell_index, key, report_key,
    status, cycles, runtime_seconds, gflops, log_gflops, dram_bytes,
    energy_joules, output_nnz, multiplications, additions
) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
"""


class SweepIndex:
    """One store's sidecar index: catch-up on read + queries.

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
            return self._open_database()
        except sqlite3.Error:
            # A corrupt sidecar is not an error condition — it is derived
            # data.  Drop it and start over; only an unusable location
            # (permissions, exotic filesystems) gives up.
            try:
                drop_index(self._store_path)
                return self._open_database()
            except (sqlite3.Error, OSError) as exc:
                raise IndexUnavailable(str(exc)) from exc

    def _open_database(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self._db_path, timeout=30.0,
                               isolation_level=None,
                               check_same_thread=False)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(_META_SCHEMA)
        _create_cells(conn)
        return conn

    def close(self) -> None:
        try:
            self._conn.close()
        except sqlite3.Error:  # pragma: no cover - close is best effort
            pass

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
    def high_water(self) -> int:
        """Byte offset of the JSONL prefix ingested by the last refresh."""
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
    def refresh(self) -> None:
        """Bring the index up to date: incremental catch-up, or rebuild.

        Catch-up ingests only ``[hwm, size)``; a rebuild (version change,
        truncated or rewritten store) re-ingests from byte 0.  Every query
        runs this first.  Raises ``ValueError`` for stores holding
        conflicting records of one cell (the scan's refusal, which every
        reader makes) and ``IndexUnavailable`` when sqlite itself fails.
        """
        self._update(rebuild=False)

    def rebuild(self) -> None:
        """Re-derive every row from the JSONL alone."""
        self._update(rebuild=True)

    def _update(self, *, rebuild: bool) -> None:
        try:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                meta = self._meta()
                size = self._store_size()
                if (rebuild
                        or meta.get("index_version") != str(INDEX_VERSION)
                        or "hwm" not in meta
                        or int(meta["hwm"]) > size
                        or not self._head_matches(meta)):
                    # Recreated, not emptied: a sidecar of another
                    # version may hold the table in an older layout.
                    self._conn.execute("DROP TABLE IF EXISTS cells")
                    _create_cells(self._conn)
                    self._ingest_locked(0, size)
                    self._set_meta(index_version=INDEX_VERSION)
                elif int(meta["hwm"]) < size:
                    self._ingest_locked(int(meta["hwm"]), size)
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        except sqlite3.Error as exc:
            raise IndexUnavailable(str(exc)) from exc

    def _ingest_locked(self, start: int, size: int) -> None:
        """Ingest the JSONL from ``start`` on (caller holds the txn).

        ``size`` is the file size the caller saw; nothing is read when it
        is not beyond ``start``.  The scan is seeded with the indexed
        cells and stops before a torn tail, which stays above the
        high-water mark until its newline lands.
        """
        hwm = start
        if size > start:
            scan = StoreScan(self._store_path, start=start, cells={
                (row[0], row[1], row[2], row[3]): (row[4], row[5])
                for row in self._conn.execute(
                    "SELECT sweep_id, scenario, engine, config_label, "
                    "key, cell_index FROM cells")
            })
            rows: list[tuple] = []
            for record, _, _ in scan:
                rows.append(_row_for(record))
                if len(rows) >= 2048:
                    self._conn.executemany(_INSERT, rows)
                    rows.clear()
            if rows:
                self._conn.executemany(_INSERT, rows)
            hwm = scan.end
        head_len, head_hash = self._head_fingerprint(hwm)
        self._set_meta(hwm=hwm, head_len=head_len, head_hash=head_hash)

    # ------------------------------------------------------------------
    # Queries (each catches up first, then reads only sqlite: a current
    # index opens no JSONL byte beyond the 64 KiB head check)
    # ------------------------------------------------------------------
    def count(self) -> int:
        """Recorded cells."""
        self.refresh()
        return self._conn.execute("SELECT COUNT(*) FROM cells").fetchone()[0]

    def sweep_counts(self) -> dict[str, int]:
        """Recorded cells per sweep, in first-appearance order."""
        self.refresh()
        return dict(self._conn.execute(
            "SELECT sweep_id, COUNT(*) FROM cells GROUP BY sweep_id "
            "ORDER BY MIN(rowid)"))

    def cell_entries(self) -> list[CellEntry]:
        """Every indexed cell's identity, in arrival (rowid) order."""
        self.refresh()
        return [CellEntry(*row) for row in self._conn.execute(
            "SELECT sweep_id, scenario, engine, config_label, key, "
            "cell_index FROM cells ORDER BY rowid")]

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
        """Per-(engine, config) summary served from the index.

        Same columns as :func:`repro.sweeps.driver.summarise_store_file`,
        without parsing a report: once the index has caught up, counts
        and sums come from SQL aggregation over the denormalised scalar
        columns, the geomean from the precomputed ``log_gflops``.  Groups
        are ordered by their first cell's canonical index — the order a
        canonically merged store's summary has, whatever order results
        arrived in.
        """
        self.refresh()
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
        self.refresh()
        return [dict(zip(names, row))
                for row in self._conn.execute(query, args)]

    def dump_rows(self) -> list[tuple]:
        """Every cell row (without rowid), ordered by arrival — the
        comparison surface the index/JSONL consistency properties use."""
        self.refresh()
        return list(self._conn.execute(
            "SELECT sweep_id, scenario, engine, config_label, cell_index, "
            "key, report_key, status, cycles, "
            "runtime_seconds, gflops, log_gflops, dram_bytes, "
            "energy_joules, output_nnz, multiplications, additions "
            "FROM cells ORDER BY rowid"))


# ----------------------------------------------------------------------
# Convenience wrappers
# ----------------------------------------------------------------------
def ensure_index(store_path: str | os.PathLike) -> SweepIndex:
    """Open a store's index, caught up with the JSONL (rebuilt if needed).

    Catching up at open surfaces a conflicting store (``ValueError``) or
    an unusable sqlite (``IndexUnavailable``) here rather than at the
    first query; a store without a sidecar pays a single scan, after
    which every later query on it reads only the bytes appended since.
    """
    index = SweepIndex(store_path)
    try:
        index.refresh()
    except BaseException:
        index.close()
        raise
    return index


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

