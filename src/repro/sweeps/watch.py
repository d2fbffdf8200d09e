"""Live progress view over a growing result store: ``sweeps watch``.

A sweep's store is append-only JSONL, so progress is observable without
talking to whoever is writing it — a shard run, a fabric fleet, or a
remote rsync target.  :class:`StoreWatcher` tails the file by byte
offset, consuming only whole (``\\n``-terminated) lines: a torn or
in-flight append is left for the next poll rather than miscounted, which
is what makes watching safe alongside the fabric coordinator's atomic
appends.

The view combines three sources, all optional:

* the store file itself — records done, per-sweep counts, append rate;
* the fabric sidecar (``<store>.fabric.json``) — authoritative totals,
  pending/failed counts and quarantine post-mortems when a coordinator
  is (or was) driving the store;
* the sweep registry — total cell counts when there is no sidecar.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.sweeps.registry import get_sweep, list_sweeps
from repro.sweeps.spec import enumerate_cells
from repro.sweeps.store import SweepRecord, parse_line


class StoreWatcher:
    """Incremental reader over a (possibly still growing) store file.

    Each :meth:`poll` picks up where the last one stopped and returns the
    newly appended records, reading the file by byte offset and consuming
    only whole (``\\n``-terminated) lines — a partially written last line
    stays unread until its terminator lands.  A file that shrinks or is
    replaced (rotated, torn by a crash, or compacted — compaction's
    atomic rename moves every later line to a new offset) resets the
    watcher to re-read from the start; records are counted by cell
    identity, so a re-read never double-counts.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self._path = os.fspath(path)
        self._offset = 0
        self._inode: int | None = None
        self._seen: set[tuple[str, str, str, str]] = set()

    @property
    def records_seen(self) -> int:
        """Distinct cells observed so far."""
        return len(self._seen)

    def poll(self) -> list[SweepRecord]:
        """Read any newly appended complete lines; returns fresh records."""
        try:
            stat = os.stat(self._path)
        except OSError:
            return []
        size = stat.st_size
        if stat.st_ino != self._inode or size < self._offset:
            # Replaced or truncated under us (compaction, rotation,
            # torn-append repair): restart.
            self._inode = stat.st_ino
            self._offset = 0
        if size == self._offset:
            return []
        with open(self._path, "rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read(size - self._offset)
        # Consume only up to the last newline; a torn tail waits.
        cut = chunk.rfind(b"\n")
        if cut < 0:
            return []
        self._offset += cut + 1
        fresh: list[SweepRecord] = []
        for line in chunk[:cut + 1].splitlines():
            record = parse_line(line.decode("utf-8", errors="replace"))
            if record is None or record.cell in self._seen:
                continue
            self._seen.add(record.cell)
            fresh.append(record)
        return fresh


def _registry_total(sweep_ids: set[str]) -> int | None:
    """Total grid cells for the observed sweeps, if all are registered.

    ``None`` when a sweep is unknown (store written elsewhere) or when
    nothing has landed yet — the display falls back to ``?``.  Note the
    registry count assumes full scale (no ``--max-rows`` cap changes cell
    counts — the grid is scenario-major, caps only shrink matrices).
    """
    if not sweep_ids:
        return None
    total = 0
    for sweep_id in sweep_ids:
        if sweep_id not in list_sweeps():
            return None
        total += len(enumerate_cells(get_sweep(sweep_id)))
    return total


@dataclass
class WatchView:
    """One rendered progress sample."""

    done: int
    total: int | None
    pending: int | None
    failed: int | None
    quarantined: int
    rate: float | None
    eta_seconds: float | None
    finished: bool
    quarantine_details: tuple[dict, ...] = ()

    def render(self) -> str:
        total = "?" if self.total is None else str(self.total)
        line = f"[watch] {self.done}/{total} cells done"
        if self.pending is not None:
            line += f", {self.pending} pending"
        if self.failed:
            line += f", {self.failed} failed"
        if self.quarantined:
            line += f", {self.quarantined} quarantined"
        if self.rate is not None:
            line += f", {self.rate:.2f} rows/s"
        if self.eta_seconds is not None:
            line += f", ETA {self.eta_seconds:.0f}s"
        if self.finished:
            line += " — finished"
        return line


@dataclass
class _RateWindow:
    """Sliding append-rate estimate over the last ``span`` seconds."""

    span: float = 30.0
    samples: list[tuple[float, int]] = field(default_factory=list)

    def update(self, now: float, count: int) -> float | None:
        self.samples.append((now, count))
        while self.samples and self.samples[0][0] < now - self.span:
            self.samples.pop(0)
        if len(self.samples) < 2:
            return None
        (t0, c0), (t1, c1) = self.samples[0], self.samples[-1]
        if t1 <= t0 or c1 < c0:
            return None
        return (c1 - c0) / (t1 - t0)


def observe(path: str | os.PathLike, watcher: StoreWatcher,
            window: _RateWindow, sweep_ids: set[str], *,
            now: float) -> WatchView:
    """Take one progress sample (the testable core of the watch loop)."""
    from repro.fabric.coordinator import read_sidecar

    for record in watcher.poll():
        sweep_ids.add(record.sweep_id)
    done = watcher.records_seen
    rate = window.update(now, done)

    sidecar = read_sidecar(path)
    pending = failed = None
    quarantined = 0
    details: tuple[dict, ...] = ()
    total = None
    finished = False
    if sidecar is not None:
        counts = sidecar.get("counts", {})
        total = sidecar.get("total_cells")
        pending = counts.get("pending")
        failed = sidecar.get("stats", {}).get("failures")
        quarantined = counts.get("quarantined", 0)
        details = tuple(sidecar.get("quarantined", ()))
        finished = bool(sidecar.get("finished"))
    if total is None:
        total = _registry_total(sweep_ids)
    if not finished and total is not None:
        finished = done + quarantined >= total
    eta = None
    if (rate and total is not None and not finished):
        eta = max(0.0, (total - quarantined - done) / rate)
    return WatchView(done=done, total=total, pending=pending,
                     failed=failed, quarantined=quarantined, rate=rate,
                     eta_seconds=eta, finished=finished,
                     quarantine_details=details)


def watch_store(path: str | os.PathLike, *,
                interval: float = 2.0,
                iterations: int | None = None,
                out=None) -> WatchView:
    """Poll a store file and print progress until finished.

    Args:
        path: the store file (it may not exist yet — the watcher waits).
        interval: seconds between polls.
        iterations: stop after this many samples regardless of progress
            (tests, CI one-shots); ``None`` runs until finished.
        out: writable stream (defaults to stdout).

    Returns:
        The last sampled view.
    """
    import sys

    out = sys.stdout if out is None else out
    watcher = StoreWatcher(path)
    window = _RateWindow()
    sweep_ids: set[str] = set()
    samples = 0
    while True:
        view = observe(path, watcher, window, sweep_ids,
                       now=time.monotonic())
        print(view.render(), file=out, flush=True)
        samples += 1
        if view.finished:
            for cell in view.quarantine_details:
                print(f"[watch] quarantined cell {cell['cell_index']} "
                      f"after {cell['attempts']} attempts: "
                      f"{cell['error']}", file=out, flush=True)
            return view
        if iterations is not None and samples >= iterations:
            return view
        time.sleep(interval)
