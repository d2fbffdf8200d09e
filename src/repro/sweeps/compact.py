"""Segment compaction: rewrite a store dropping dead bytes, atomically.

A long-lived store accumulates bytes that no reader will ever use:

* **superseded duplicates** — concurrent shard writers or fabric retries
  landing whole duplicate records of a cell (loading and merging already
  keep only the first);
* **torn tails** — half-written final lines left by kills, terminated by
  the next append and skipped forever after;
* **stale layouts** — lines from older ``store_version`` / report
  ``schema_version`` revisions, rotated out by recomputation.

:func:`compact_store` reads the JSONL once through the store's scanner
(:class:`~repro.sweeps.store.StoreScan`), which keeps each cell's *first*
valid record — the rule every reader applies, so the surviving record set
is exactly what loading would have produced — re-serialises each record
through :meth:`~repro.sweeps.store.SweepRecord.to_line`, and atomically
replaces the store via tmp-file + ``os.replace`` — a reader or a kill at
any instant sees either the old segment or the new one, never a mixture.
The scan's duplicate and invalid-line counts are the dropped counts.
Afterwards the sqlite sidecar is rebuilt (or dropped, when sqlite is
unavailable): the rewrite moves lines, and one that keeps the first
64 KiB and leaves the file no shorter than the indexed prefix would pass
the index's catch-up checks unnoticed.

The guarantee the property tests pin down (DESIGN.md §9): the canonical
merge of a compacted store is **byte-identical** to the canonical merge
of the uncompacted original, under every chaos-harness fault schedule.
Compaction never changes what a store *means* — only how many bytes say
it.

Run compaction quiesced (no live writers): a record appended between the
scan and the ``os.replace`` would be dropped with the old segment.  The
CLI (``python -m repro.sweeps compact``) is the intended entry point,
after a sweep or between fabric runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.sweeps.index import IndexUnavailable, SweepIndex, drop_index
from repro.sweeps.store import StoreScan


@dataclass(frozen=True)
class CompactionStats:
    """Outcome of one :func:`compact_store` run.

    Attributes:
        path: the compacted store file.
        records: surviving records (one per cell).
        bytes_before / bytes_after: segment size either side of the
            rewrite.
        dropped_duplicates: whole valid records dropped because an
            earlier record of their cell survived.
        dropped_invalid: lines dropped as unparseable — torn tails,
            blank lines, bytes that are not UTF-8, stale layouts/schemas.
    """

    path: str
    records: int
    bytes_before: int
    bytes_after: int
    dropped_duplicates: int
    dropped_invalid: int

    def render(self) -> str:
        """One status line, e.g. for the CLI."""
        saved = self.bytes_before - self.bytes_after
        return (f"[compact {self.path}] {self.records} records, "
                f"{self.bytes_before} -> {self.bytes_after} bytes "
                f"({saved} reclaimed), {self.dropped_duplicates} duplicate "
                f"and {self.dropped_invalid} invalid lines dropped")


def compact_store(path: str | os.PathLike, *,
                  fsync: bool = True) -> CompactionStats:
    """Rewrite a store segment keeping one valid record per cell.

    Args:
        path: the JSONL store file (must exist — compacting a store that
            is not there would quietly "succeed" on a typo'd path).
        fsync: flush the new segment to stable storage before the atomic
            rename (on by default: compaction is explicitly invoked
            maintenance, and losing the *whole* rewritten segment to a
            power cut — unlike losing one appended record — is not
            recomputed-away cheaply).

    Returns:
        A :class:`CompactionStats` describing what survived and what was
        dropped.

    Raises:
        FileNotFoundError: when the store file does not exist.
        ValueError: when two records of one cell carry different
            fingerprints or canonical indices — a mixed store is refused,
            exactly as loading and merging refuse it, and the original
            file is left untouched.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"result store not found: {path}")
    bytes_before = path.stat().st_size

    tmp = Path(f"{path}.compact.tmp")
    scan = StoreScan(path)
    try:
        with open(tmp, "w", encoding="utf-8") as sink:
            for record, _, _ in scan:
                sink.write(record.to_line())
            sink.flush()
            if fsync:
                os.fsync(sink.fileno())
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise

    os.replace(tmp, path)
    if fsync:
        # Persist the rename itself (best effort — not every filesystem
        # supports opening a directory for fsync).
        try:
            dir_fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:
            pass

    try:
        index = SweepIndex(path)
        try:
            index.rebuild()
        finally:
            index.close()
    except IndexUnavailable:
        # No index is better than a stale one; the JSONL stays complete.
        drop_index(path)

    return CompactionStats(
        path=os.fspath(path),
        records=len(scan.cells),
        bytes_before=bytes_before,
        bytes_after=path.stat().st_size,
        dropped_duplicates=scan.duplicates,
        dropped_invalid=scan.invalid,
    )
