"""The SpGEMM service: admission control, coalesced execution, drain.

:class:`SpGEMMService` is the long-lived, multi-tenant front end over the
engine registry.  One request is ``{engine, scenario, config}`` — an
engine registry name, a scenario reference (``"corpus/name"`` into the
corpus registry, or an inline recipe dict), and optional SpArch config
overrides — and resolves to the same content address the batch stack
uses: :meth:`~repro.experiments.runner.ExperimentRunner.point_key` over
the recipe's operand fingerprint.  That shared address is what makes the
service a cache front end for the whole system: anything a sweep, a
fabric fleet or a figure harness already computed into the shared
:class:`~repro.serve.store.ReportStore` is served without re-simulation,
and vice versa.

The request path, in order:

1. **Parse/resolve** — unknown engines, malformed scenario references,
   bad config overrides and a non-numeric or non-finite ``delay`` are
   answered with a ``400``-style error payload.
2. **Key, then fast path** — the point key joins the recipe's operand
   fingerprint (memoised per recipe) and the engine's identity fingerprint
   (memoised per engine instance; the service keeps one engine per name
   and config), so a warm request re-derives neither.  A store probe then
   answers a warm point without touching the worker pool and without
   building its operand.  A recipe not yet fingerprinted is built once,
   into the operand LRU, where execution finds it.
3. **Admission control** — cold points need a worker slot.  If more than
   ``queue_limit`` requests are already waiting for one, the request is
   rejected with an explicit ``503``-style payload rather than queued
   without bound; below the cap, the request blocks on the bounded
   semaphore — that blocking *is* the backpressure a transport client
   feels.
4. **Coalesced execution** — the store's
   :meth:`~repro.serve.store.ReportStore.get_or_compute` guarantees N
   concurrent identical requests run the engine exactly once; followers
   wait on the leader's result (holding their slot, which bounds the
   total work admitted, not the number of executions).

Every transition is counted: request totals, per-engine counts,
hit/coalesced/computed outcomes, rejections, a bounded window of request
latencies (p50/p95/p99), and queue/inflight gauges — snapshotted by
:meth:`SpGEMMService.stats` as one JSON-ready payload.

Shutdown is graceful by construction: :meth:`SpGEMMService.shutdown`
flips the service into draining (new requests get the ``503`` payload),
waits for in-flight requests to finish, flushes a final metrics snapshot
to ``metrics_path``, and returns it.  The CLI wires SIGTERM/SIGINT to
exactly this path; it is deliberately *not* exposed over the socket
transport, so no client can drain a shared service.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import threading
import time
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import SpArchConfig
from repro.corpus.registry import list_corpora, resolve_scenario
from repro.corpus.spec import Scenario, scenario_fingerprint
from repro.engines.base import Engine
from repro.engines.registry import create_engine, get_engine_entry, \
    list_engines
from repro.experiments.runner import ExperimentRunner
from repro.formats.csr import CSRMatrix

#: RPC methods a serve client may call (see ``repro.fabric.transport``).
#: ``shutdown`` is intentionally absent: drains are signal-driven and
#: server-side only.
EXPOSED_SERVICE = ("request", "stats", "describe", "ping")

#: Environment variable carrying the hex-encoded authkey to serve clients.
SERVE_AUTHKEY_ENV = "REPRO_SERVE_AUTHKEY"

#: Operand LRU size: scenarios kept materialised between cold requests.
MATRIX_CACHE_ENTRIES = 4

#: Request latencies kept for percentile snapshots.
LATENCY_WINDOW = 8192

#: Keys a request payload may carry.
_REQUEST_KEYS = frozenset({"engine", "scenario", "config", "full_report",
                           "delay"})


class RequestError(ValueError):
    """A malformed request — answered with a ``400``-style payload."""


class ServiceUnavailable(RuntimeError):
    """Admission refused — answered with a ``503``-style payload."""


@dataclass(frozen=True)
class ServeOptions:
    """Service sizing and behaviour knobs.

    Attributes:
        workers: bounded worker-pool width — cold points executing (or
            coalescing on an executing leader) at once.
        queue_limit: cold requests allowed to *wait* for a worker slot;
            one more is rejected with the ``503`` payload.
        debug_delay: honour a request's ``delay`` field by sleeping that
            many seconds inside the (coalesced) compute path — a test and
            chaos aid, off by default.
        metrics_path: where :meth:`SpGEMMService.shutdown` flushes the
            final stats snapshot (``None`` skips the flush).
    """

    workers: int = 4
    queue_limit: int = 64
    debug_delay: bool = False
    metrics_path: str | os.PathLike | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.queue_limit < 0:
            raise ValueError(
                f"queue_limit must be non-negative, got {self.queue_limit}")


@dataclass(frozen=True)
class _ParsedRequest:
    """A validated request, resolved against the registries."""

    engine_name: str
    scenario: Scenario
    config_overrides: tuple[tuple[str, object], ...]
    full_report: bool
    delay: float


def _latency_summary(seconds_sorted: list[float]) -> dict:
    """Percentile summary (milliseconds) of a sorted latency window."""
    count = len(seconds_sorted)
    if count == 0:
        return {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p95_ms": 0.0,
                "p99_ms": 0.0, "max_ms": 0.0}

    def at(quantile: float) -> float:
        index = min(count - 1, int(quantile * count))
        return seconds_sorted[index] * 1000.0

    return {
        "count": count,
        "mean_ms": sum(seconds_sorted) / count * 1000.0,
        "p50_ms": at(0.50),
        "p95_ms": at(0.95),
        "p99_ms": at(0.99),
        "max_ms": seconds_sorted[-1] * 1000.0,
    }


class SpGEMMService:
    """Multi-tenant SpGEMM serving over the engine registry.

    Args:
        runner: the experiment runner whose shared store answers repeat
            requests; a fresh in-memory one by default.  Point a
            ``cache_dir`` runner at a sweep's cache to serve its results.
        options: sizing knobs (see :class:`ServeOptions`).
        clock: injectable latency clock (tests).
    """

    def __init__(self, *, runner: ExperimentRunner | None = None,
                 options: ServeOptions | None = None,
                 clock=time.perf_counter) -> None:
        self._runner = runner if runner is not None else ExperimentRunner()
        self._options = options if options is not None else ServeOptions()
        self._clock = clock
        self._lock = threading.Lock()
        self._slots = threading.Semaphore(self._options.workers)
        self._matrix_lock = threading.Lock()
        self._matrices: OrderedDict[tuple, CSRMatrix] = OrderedDict()
        self._engine_lock = threading.Lock()
        self._engines: dict[tuple[str, str], Engine] = {}
        # Counters (all guarded by self._lock)
        self._requests = 0
        self._ok = 0
        self._rejected = 0
        self._errors = 0
        self._bad_requests = 0
        self._outcomes: Counter[str] = Counter()
        self._per_engine: Counter[str] = Counter()
        self._inflight = 0
        self._queued = 0
        self._active = 0
        self._peak_queued = 0
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._draining = False
        self._drained = threading.Event()
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    @property
    def runner(self) -> ExperimentRunner:
        return self._runner

    @property
    def options(self) -> ServeOptions:
        return self._options

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # ------------------------------------------------------------------
    # Request parsing and resolution
    # ------------------------------------------------------------------
    def _parse(self, payload) -> _ParsedRequest:
        if not isinstance(payload, dict):
            raise RequestError(
                f"request must be a dict, got {type(payload).__name__}")
        unknown = set(payload) - _REQUEST_KEYS
        if unknown:
            raise RequestError(
                f"unknown request fields {sorted(unknown)}; allowed: "
                f"{sorted(_REQUEST_KEYS)}")
        engine_name = payload.get("engine")
        if not isinstance(engine_name, str):
            raise RequestError("request needs an 'engine' registry name")
        try:
            entry = get_engine_entry(engine_name)
        except KeyError as exc:
            raise RequestError(str(exc.args[0])) from None
        if "scenario" not in payload:
            raise RequestError(
                "request needs a 'scenario' ('corpus/name' or recipe dict)")
        try:
            scenario = resolve_scenario(payload["scenario"])
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            raise RequestError(str(message)) from None
        overrides = payload.get("config") or {}
        if not isinstance(overrides, dict):
            raise RequestError(
                f"'config' must be a dict of SpArchConfig overrides, got "
                f"{type(overrides).__name__}")
        if overrides and entry.factory.kind != "simulation":
            raise RequestError(
                f"engine {engine_name!r} takes no configuration; drop "
                f"'config' or use a simulation engine")
        delay = payload.get("delay") or 0.0
        try:
            delay = float(delay)
        except (TypeError, ValueError):
            raise RequestError(
                f"'delay' must be a number of seconds, got {delay!r}"
            ) from None
        if not math.isfinite(delay):
            raise RequestError(f"'delay' must be finite, got {delay!r}")
        return _ParsedRequest(
            engine_name=engine_name,
            scenario=scenario,
            config_overrides=tuple(sorted(overrides.items())),
            full_report=bool(payload.get("full_report")),
            delay=delay,
        )

    def _engine_for(self, req: _ParsedRequest) -> Engine:
        """Build (or reuse) the engine instance serving this request."""
        memo_key = (req.engine_name,
                    json.dumps(req.config_overrides, default=str))
        with self._engine_lock:
            engine = self._engines.get(memo_key)
        if engine is not None:
            return engine
        if req.config_overrides:
            try:
                config = dataclasses.replace(SpArchConfig(),
                                             **dict(req.config_overrides))
            except (TypeError, ValueError) as exc:
                raise RequestError(f"bad config overrides: {exc}") from None
            engine = create_engine(req.engine_name, config=config)
        else:
            engine = create_engine(req.engine_name)
        with self._engine_lock:
            return self._engines.setdefault(memo_key, engine)

    def _matrix_for(self, scenario: Scenario) -> CSRMatrix:
        """The scenario's operand, through a small LRU of built matrices."""
        key = (scenario.family, scenario.params)
        with self._matrix_lock:
            matrix = self._matrices.get(key)
            if matrix is not None:
                self._matrices.move_to_end(key)
                return matrix
        matrix = scenario.build()  # outside the lock; a race builds twice
        with self._matrix_lock:
            self._matrices[key] = matrix
            self._matrices.move_to_end(key)
            while len(self._matrices) > MATRIX_CACHE_ENTRIES:
                self._matrices.popitem(last=False)
        return matrix

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _admit(self) -> None:
        """Claim a place in the worker queue or reject with a 503."""
        with self._lock:
            if self._draining:
                raise ServiceUnavailable(
                    "draining: the service is shutting down")
            if self._queued >= self._options.queue_limit:
                raise ServiceUnavailable(
                    f"queue full: {self._queued} requests already waiting "
                    f"for a worker (queue_limit {self._options.queue_limit})")
            self._queued += 1
            self._peak_queued = max(self._peak_queued, self._queued)

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------
    def request(self, payload) -> dict:
        """Serve one request; always returns a JSON-ready response dict.

        Response statuses: ``"ok"`` (with the report summary, the point
        key and the cache ``outcome``), ``"rejected"`` (code 503:
        admission refused or draining), ``"error"`` (code 400 for
        malformed requests, 500 for engine failures).  Every response
        carries ``latency_ms``.
        """
        started = self._clock()
        try:
            req = self._parse(payload)
        except RequestError as exc:
            with self._lock:
                self._requests += 1
                self._bad_requests += 1
            return self._finish({"status": "error", "code": 400,
                                 "error": str(exc)}, started)
        with self._lock:
            self._requests += 1
            draining = self._draining
            if not draining:
                self._inflight += 1
                self._per_engine[req.engine_name] += 1
        if draining:
            with self._lock:
                self._rejected += 1
            return self._finish(
                {"status": "rejected", "code": 503,
                 "reason": "draining: the service is shutting down"},
                started)
        try:
            response = self._execute(req)
        except ServiceUnavailable as exc:
            with self._lock:
                self._rejected += 1
            response = {"status": "rejected", "code": 503,
                        "reason": str(exc)}
        except RequestError as exc:
            with self._lock:
                self._bad_requests += 1
            response = {"status": "error", "code": 400, "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 — relayed, never fatal
            with self._lock:
                self._errors += 1
            response = {"status": "error", "code": 500,
                        "error": f"{type(exc).__name__}: {exc}"}
        finally:
            with self._lock:
                self._inflight -= 1
                if self._draining and self._inflight == 0:
                    self._drained.set()
        return self._finish(response, started)

    def _finish(self, response: dict, started: float) -> dict:
        elapsed = self._clock() - started
        response["latency_ms"] = round(elapsed * 1000.0, 3)
        with self._lock:
            self._latencies.append(elapsed)
            if response["status"] == "ok":
                self._ok += 1
                self._outcomes[response["outcome"]] += 1
        return response

    def _execute(self, req: _ParsedRequest) -> dict:
        engine = self._engine_for(req)
        # A cold recipe is built into the operand LRU, where the run's
        # matrix supplier finds it: each cold request builds once.
        fingerprint = scenario_fingerprint(req.scenario,
                                           build=self._matrix_for)
        key = self._runner.point_key(engine, None, fingerprint_a=fingerprint)
        setup = None
        if req.delay > 0 and self._options.debug_delay:
            setup = lambda: time.sleep(req.delay)  # noqa: E731

        def run() -> tuple:
            return self._runner.run_engine_keyed(
                engine, key=key,
                matrix_supplier=lambda: self._matrix_for(req.scenario),
                setup=setup)

        if self._runner.store.load(key) is not None:
            # Warm point: answered without a worker slot (the store call
            # below is a memory hit — no operand is ever built).
            report, outcome = run()
        else:
            self._admit()
            self._slots.acquire()
            with self._lock:
                self._queued -= 1
                self._active += 1
            try:
                report, outcome = run()
            finally:
                with self._lock:
                    self._active -= 1
                self._slots.release()
        response = {
            "status": "ok",
            "outcome": outcome,
            "key": key,
            "engine": req.engine_name,
            "scenario": req.scenario.name,
            "summary": report.summary(),
        }
        if req.full_report:
            response["report"] = report.to_dict()
        return response

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def ping(self) -> str:
        return "pong"

    def describe(self) -> dict:
        """Static service facts: registries served and pool sizing."""
        return {
            "engines": list_engines(),
            "corpora": list_corpora(),
            "workers": self._options.workers,
            "queue_limit": self._options.queue_limit,
            "draining": self.draining,
        }

    def stats(self) -> dict:
        """One JSON-ready snapshot of service and store counters."""
        with self._lock:
            window = sorted(self._latencies)
            service = {
                "requests": self._requests,
                "ok": self._ok,
                "rejected": self._rejected,
                "errors": self._errors,
                "bad_requests": self._bad_requests,
                "outcomes": dict(self._outcomes),
                "per_engine": dict(self._per_engine),
                "inflight": self._inflight,
                "queued": self._queued,
                "active": self._active,
                "peak_queued": self._peak_queued,
                "workers": self._options.workers,
                "queue_limit": self._options.queue_limit,
                "draining": self._draining,
                "uptime_seconds": time.monotonic() - self._started,
                "latency": _latency_summary(window),
            }
        return {"schema": 1, "service": service,
                "runner": self._runner.stats()}

    # ------------------------------------------------------------------
    # Graceful shutdown
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting: new requests get the 503 draining payload."""
        with self._lock:
            self._draining = True
            if self._inflight == 0:
                self._drained.set()

    def shutdown(self, *, timeout: float | None = None) -> dict:
        """Drain in-flight requests, flush metrics, return the snapshot.

        Args:
            timeout: seconds to wait for the drain; ``None`` waits until
                every in-flight request has finished.  The snapshot's
                ``service.drained`` records whether the drain completed.
        """
        self.begin_drain()
        drained = self._drained.wait(timeout)
        snapshot = self.stats()
        snapshot["service"]["drained"] = bool(drained)
        self.flush_metrics(snapshot)
        return snapshot

    def flush_metrics(self, snapshot: dict | None = None) -> Path | None:
        """Write a stats snapshot to ``metrics_path`` (atomic, best-effort).

        Returns the path written, or ``None`` when no path is configured.
        """
        if self._options.metrics_path is None:
            return None
        path = Path(self._options.metrics_path)
        snapshot = snapshot if snapshot is not None else self.stats()
        tmp = path.with_suffix(f"{path.suffix}.tmp.{os.getpid()}")
        tmp.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        tmp.replace(path)
        return path
