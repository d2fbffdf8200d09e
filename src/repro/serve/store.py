"""The shared, concurrent-safe cost-report store behind runner and service.

:class:`ReportStore` is the :class:`~repro.experiments.runner.ExperimentRunner`
memo *promoted to a subsystem*: one content-addressed map from point keys
(:meth:`ExperimentRunner.point_key`) to serialised
:class:`~repro.metrics.report.CostReport` payloads, shared by every layer
that executes engine points — the batch runner, the sweep driver, the
fabric workers and the serving layer alike.  Promotion buys three things
the old private dict could not provide:

* **Thread safety.**  The in-memory tier is guarded by one lock, so a
  multi-threaded caller (the service handles each client on its own
  thread) never sees a torn read or loses a write.  The on-disk tier was
  already process-safe — atomic ``tmp + replace`` writes beside lock-free
  reads — and stays that way: readers of other processes observe either
  the old entry or the new one, never a partial file.
* **Request coalescing.**  :meth:`get_or_compute` registers in-flight
  computations, so N concurrent requests for the same key perform exactly
  one engine execution: one *leader* computes while the other callers
  park on an event and read the leader's payload when it lands.  If the
  leader fails, waiters retry from the top (one may become the next
  leader) — an error never caches and never strands a waiter.
* **One instrumentation point.**  Hits (memory or disk), misses
  (computed), coalesced waits, cumulative compute/hit-wait latency and
  the in-flight gauge are counted here, so runner ``stats()``, sweep
  progress lines and the service's ``/stats`` snapshot all report from
  the same counters.

The store never deserialises payloads — it deals in the JSON dicts the
runner caches — so it has no dependency on the engine or metrics layers
and sits below all of them.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path


class _Inflight:
    """One in-flight computation: waiters park on the event."""

    __slots__ = ("event", "payload")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload: dict | None = None


class ReportStore:
    """Concurrent-safe two-tier (memory + optional disk) report store.

    The point key is the whole address in both tiers: the memory tier maps
    it to a payload, and the disk tier holds ``<cache_dir>/<key>.json``.
    The key already identifies the engine, so nothing else partitions the
    store.

    Args:
        cache_dir: directory for the on-disk tier, one ``<key>.json`` file
            per point; ``None`` keeps results in memory only (one process
            lifetime).
        clock: injectable monotonic clock for latency accounting (tests).
    """

    def __init__(self, *, cache_dir: str | os.PathLike | None = None,
                 clock=time.perf_counter) -> None:
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._clock = clock
        self._lock = threading.Lock()
        self._memory: dict[str, dict] = {}
        self._inflight: dict[str, _Inflight] = {}
        self._hits = 0
        self._misses = 0
        self._coalesced = 0
        self._compute_seconds = 0.0
        self._coalesced_wait_seconds = 0.0
        if self._cache_dir is not None:
            self._cache_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    @property
    def cache_dir(self) -> Path | None:
        return self._cache_dir

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    @property
    def coalesced(self) -> int:
        with self._lock:
            return self._coalesced

    # ------------------------------------------------------------------
    # The two tiers
    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> Path | None:
        if self._cache_dir is None:
            return None
        return self._cache_dir / f"{key}.json"

    def load(self, key: str) -> dict | None:
        """Fetch a payload from memory, then disk; ``None`` on a miss.

        A pure probe: counts nothing (batch callers account for whole
        batches through :meth:`record_batch`; request callers go through
        :meth:`get_or_compute`, which counts per outcome).  A disk entry
        read by this process is promoted into the memory tier.
        """
        with self._lock:
            payload = self._memory.get(key)
        if payload is not None:
            return payload
        path = self._disk_path(key)
        if path is None or not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None  # corrupt/concurrent write; treat as a miss
        with self._lock:
            self._memory.setdefault(key, payload)
        return payload

    def store(self, key: str, payload: dict) -> None:
        """Insert a payload into both tiers (disk write is best-effort).

        The disk write goes through a per-process temporary file renamed
        into place — atomic on POSIX, so concurrent writers race safely
        and readers in other processes never observe a partial entry.
        """
        with self._lock:
            self._memory[key] = payload
        path = self._disk_path(key)
        if path is None:
            return
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            tmp.write_text(json.dumps(payload))
            tmp.replace(path)
        except OSError:
            pass  # cache is best-effort

    # ------------------------------------------------------------------
    # Coalescing fetch-or-compute
    # ------------------------------------------------------------------
    def get_or_compute(self, key: str, compute) -> tuple[dict, str]:
        """Fetch ``key`` or run ``compute`` exactly once across threads.

        Returns ``(payload, outcome)`` where the outcome is ``"hit"``
        (either tier already held the entry), ``"coalesced"`` (another
        thread was computing it; this caller waited for that result), or
        ``"computed"`` (this caller was the leader and ran ``compute``).

        Exceptions from ``compute`` propagate to the leader and are never
        cached; parked waiters then retry from the top, so a transient
        failure costs one extra attempt rather than poisoning the key.
        """
        while True:
            with self._lock:
                payload = self._memory.get(key)
                if payload is not None:
                    self._hits += 1
                    return payload, "hit"
                entry = self._inflight.get(key)
                if entry is None:
                    entry = _Inflight()
                    self._inflight[key] = entry
                    leader = True
                else:
                    leader = False
            if not leader:
                started = self._clock()
                entry.event.wait()
                if entry.payload is None:
                    continue  # leader failed; retry (maybe as leader)
                with self._lock:
                    self._coalesced += 1
                    self._coalesced_wait_seconds += self._clock() - started
                return entry.payload, "coalesced"
            try:
                payload = self.load(key)
                if payload is not None:
                    outcome = "hit"
                    with self._lock:
                        self._hits += 1
                else:
                    outcome = "computed"
                    started = self._clock()
                    payload = compute()
                    elapsed = self._clock() - started
                    self.store(key, payload)
                    with self._lock:
                        self._misses += 1
                        self._compute_seconds += elapsed
            except BaseException:
                with self._lock:
                    del self._inflight[key]
                entry.event.set()  # payload stays None: waiters retry
                raise
            with self._lock:
                entry.payload = payload
                del self._inflight[key]
            entry.event.set()
            return payload, outcome

    # ------------------------------------------------------------------
    # Batch accounting and snapshots
    # ------------------------------------------------------------------
    def record_batch(self, *, hits: int = 0, misses: int = 0,
                     compute_seconds: float = 0.0) -> None:
        """Account a batch executed outside :meth:`get_or_compute`.

        ``run_engine_many`` probes and fans out whole batches itself (its
        misses run in worker *processes*); it reports the totals here so
        every execution path shares one set of counters.
        """
        with self._lock:
            self._hits += hits
            self._misses += misses
            self._compute_seconds += compute_seconds

    def stats(self) -> dict:
        """Snapshot of the store's counters and gauges (JSON-ready)."""
        with self._lock:
            hits, misses = self._hits, self._misses
            lookups = hits + misses + self._coalesced
            return {
                "hits": hits,
                "misses": misses,
                "coalesced": self._coalesced,
                "hit_rate": (hits + self._coalesced) / lookups if lookups
                else 0.0,
                "compute_seconds": self._compute_seconds,
                "coalesced_wait_seconds": self._coalesced_wait_seconds,
                "inflight": len(self._inflight),
                "entries": len(self._memory),
            }
