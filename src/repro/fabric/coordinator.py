"""The fabric coordinator: one process that owns the grid and the store.

The coordinator is the sweep's single source of truth.  It enumerates the
canonical cell grid once, resumes lease state from whatever records
already survive in the store, and then serves a small RPC surface —
``describe`` / ``acquire`` / ``heartbeat`` / ``complete`` / ``fail`` /
``snapshot`` — to any number of workers.  Workers compute; the
coordinator is the **only store writer**, so the append-only JSONL never
sees interleaved writers in fabric mode (the ``O_APPEND`` hardening in
the store still protects plain shard runs that share a file).

Why this division keeps the merged store byte-identical to a
single-process run regardless of fault schedule:

* results are validated against the canonical grid and deduplicated by
  cell *before* they are appended (:meth:`LeaseTable.complete` is
  cell-keyed), so duplicate leases and late deliveries append nothing
  twice;
* the engines are deterministic, so a retried cell produces the same
  record a first attempt would have;
* the store's canonical merge sorts and dedupes by cell order.

Together: whatever workers die, stall or double-deliver, the set of
appended records equals the uninterrupted run's set, minus any
quarantined cells — the one sanctioned divergence, reported loudly in
the sidecar rather than silently retried forever.

Next to a file-backed store the coordinator maintains a JSON *sidecar*
(``<store>.fabric.json``, written atomically) with live counts, lease
stats and quarantine post-mortems — the hook for ``repro.sweeps watch``
and for ``summarise`` to report quarantined cells.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict

from repro.fabric.lease import Lease, LeasePolicy, LeaseTable
from repro.sweeps.spec import SweepCell, SweepSpec, enumerate_cells
from repro.sweeps.store import ResultStore, SweepRecord


def sidecar_path(store_path: str | os.PathLike) -> str:
    """The fabric progress sidecar written next to a store file."""
    return f"{os.fspath(store_path)}.fabric.json"


class Coordinator:
    """Lease-queue coordinator for one sweep over one result store.

    Args:
        spec: the frozen sweep declaration.
        store: result store instance, JSONL path, or ``None`` for an
            in-memory store.  An existing file resumes: its surviving
            records are marked done (a torn tail parses as not-done and
            simply re-runs).
        max_rows: corpus scale cap, forwarded to cell enumeration — must
            match what workers pass (``describe`` hands it to them).
        policy: lease/heartbeat/retry policy; defaults to
            :class:`LeasePolicy`'s defaults.
        clock: monotonic time source.  The default is the wall clock;
            the chaos harness injects a logical clock to make whole
            fault schedules deterministic.
        fsync: fsync the store after each append (only meaningful when
            ``store`` is given as a path; a pre-built store keeps its
            own setting).
    """

    def __init__(self, spec: SweepSpec, *,
                 store: ResultStore | str | os.PathLike | None = None,
                 max_rows: int | None = None,
                 policy: LeasePolicy | None = None,
                 clock=time.monotonic,
                 fsync: bool = False) -> None:
        self._spec = spec
        self._max_rows = max_rows
        self._policy = policy or LeasePolicy()
        self._clock = clock
        if not isinstance(store, ResultStore):
            store = ResultStore(store, fsync=fsync)
        self._store = store
        self._lock = threading.RLock()
        cells = enumerate_cells(spec, max_rows=max_rows)
        self._cells: dict[int, SweepCell] = {cell.index: cell
                                             for cell in cells}
        # Resume from the identities-only view: an index-backed store
        # answers this from its sqlite sidecar, which parses only the
        # lines appended since it was last read, never every report.
        done = [entry.cell_index
                for entry in store.cell_entries()
                if entry.sweep_id == spec.sweep_id
                and self._matches_grid(entry)]
        self._table = LeaseTable(self._cells, policy=self._policy,
                                 done=done)
        self.appends = 0
        self._write_sidecar()

    # ------------------------------------------------------------------
    @property
    def spec(self) -> SweepSpec:
        return self._spec

    @property
    def store(self) -> ResultStore:
        return self._store

    @property
    def policy(self) -> LeasePolicy:
        return self._policy

    # ------------------------------------------------------------------
    # RPC surface (everything below here is what transport exposes)
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Static facts a worker needs to reconstruct the grid locally.

        Workers rebuild the spec from the registry by ``sweep_id`` and
        enumerate cells themselves — lease grants then only need to name
        a *cell index*, keeping every RPC payload small.
        """
        return {
            "sweep_id": self._spec.sweep_id,
            "max_rows": self._max_rows,
            "total_cells": len(self._cells),
            "policy": asdict(self._policy),
            "store_path": (os.fspath(self._store.path)
                           if self._store.path is not None else None),
        }

    def acquire(self, worker_id: str) -> dict:
        """Ask for work.  One of three answers:

        * ``{"status": "lease", "lease_id", "cell_index", "deadline_in",
          "heartbeat_interval"}`` — a granted lease;
        * ``{"status": "wait", "seconds"}`` — nothing grantable right now
          (cells leased out or backing off); retry after ``seconds``;
        * ``{"status": "done"}`` — every cell is done or quarantined; the
          worker should exit.
        """
        with self._lock:
            now = self._tick()
            if self._table.finished:
                self._write_sidecar()
                return {"status": "done"}
            lease = self._table.acquire(worker_id, now)
            if lease is None:
                wait = self._table.next_event(now)
                if wait is None:
                    wait = self._policy.heartbeat_interval
                return {"status": "wait", "seconds": wait}
            return {
                "status": "lease",
                "lease_id": lease.lease_id,
                "cell_index": lease.cell_index,
                "deadline_in": self._policy.lease_duration,
                "heartbeat_interval": self._policy.heartbeat_interval,
            }

    def heartbeat(self, lease_id: str) -> bool:
        """Extend a lease; ``False`` means it was already reclaimed."""
        with self._lock:
            now = self._tick()
            return self._table.heartbeat(lease_id, now)

    def complete(self, worker_id: str, lease_id: str,
                 record_payload: dict) -> dict:
        """Deliver a finished cell's record (``dataclasses.asdict`` form).

        The record must match the canonical grid (right sweep, right
        coordinates at the right index) or it is rejected outright.
        Accepted records are deduplicated by cell — late and duplicate
        deliveries return ``fresh: False`` and append nothing — and
        appended to the store otherwise.  Lease identity is advisory:
        a result arriving after its lease expired (or from a lease a
        restarted coordinator never issued) is still a valid result.
        """
        record = SweepRecord(**record_payload)
        with self._lock:
            now = self._tick()
            if (record.sweep_id != self._spec.sweep_id
                    or not self._matches_grid(record)):
                return {"status": "rejected",
                        "reason": (f"record for "
                                   f"{record.report_key!r} at index "
                                   f"{record.cell_index} does not match "
                                   f"the canonical grid of sweep "
                                   f"{self._spec.sweep_id!r}")}
            fresh = self._table.complete(record.cell_index, now)
            if fresh:
                self._store.append(record)
                self.appends += 1
            self._write_sidecar()
            return {"status": "ok", "fresh": fresh,
                    "finished": self._table.finished}

    def fail(self, worker_id: str, lease_id: str, cell_index: int,
             error: str) -> dict:
        """Report an engine failure; the cell retries or quarantines."""
        with self._lock:
            now = self._tick()
            status = self._table.fail(cell_index, now, error)
            self._write_sidecar()
            return {"status": status, "finished": self._table.finished}

    def snapshot(self) -> dict:
        """Live progress: counts, leases, stats, quarantine post-mortems.

        Calling it also drives lease expiry — the fleet supervisor polls
        ``snapshot`` precisely so dead workers' leases are reclaimed even
        while every surviving worker sits in a long compute.
        """
        with self._lock:
            self._tick()
            return self._snapshot_locked()

    def finished(self) -> bool:
        """True once every cell is done or quarantined."""
        with self._lock:
            self._tick()
            return self._table.finished

    # ------------------------------------------------------------------
    # Chaos-only hooks (never exposed over the transport)
    # ------------------------------------------------------------------
    def force_lease(self, worker_id: str, cell_index: int) -> Lease | None:
        """Grant a lease on a specific cell even if it is already leased.

        The **duplicate-lease** fault: two workers end up computing the
        same cell.  Exists for the chaos harness only.
        """
        with self._lock:
            now = self._tick()
            return self._table.acquire(worker_id, now,
                                       cell_index=cell_index)

    # ------------------------------------------------------------------
    def _tick(self) -> float:
        """Read the clock and reclaim whatever expired meanwhile."""
        now = self._clock()
        self._table.expire(now)
        return now

    def _matches_grid(self, record) -> bool:
        """Whether a record (or :class:`~repro.sweeps.store.CellEntry`)
        sits at its coordinates' canonical grid position."""
        cell = self._cells.get(record.cell_index)
        return (cell is not None
                and record.scenario == cell.scenario.name
                and record.engine == cell.engine
                and record.config_label == cell.config_label)

    def _snapshot_locked(self) -> dict:
        return {
            "sweep_id": self._spec.sweep_id,
            "total_cells": len(self._cells),
            "counts": self._table.counts(),
            "finished": self._table.finished,
            "leases": [
                {"lease_id": lease.lease_id,
                 "worker_id": lease.worker_id,
                 "cell_index": lease.cell_index}
                for lease in self._table.active_leases()
            ],
            "quarantined": [asdict(cell)
                            for cell in self._table.quarantined()],
            "stats": {
                "reclaimed": self._table.reclaimed,
                "duplicates_dropped": self._table.duplicates_dropped,
                "failures": self._table.failures,
                "appends": self.appends,
            },
        }

    def _write_sidecar(self) -> None:
        """Atomically refresh ``<store>.fabric.json`` (file stores only)."""
        if self._store.path is None:
            return
        path = sidecar_path(self._store.path)
        payload = json.dumps(self._snapshot_locked(), sort_keys=True,
                             indent=2) + "\n"
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp, path)


def read_sidecar(store_path: str | os.PathLike) -> dict | None:
    """Load a store's fabric sidecar, or ``None`` if absent/corrupt."""
    try:
        with open(sidecar_path(store_path), encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None
