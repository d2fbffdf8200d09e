"""Batched experiment runner: engine points memoised as cost reports.

Every figure/table harness ultimately runs some set of ``(engine, matrix)``
points — SpArch simulations under scaled configurations, baseline platform
models over the same matrices — and the sets overlap heavily across
experiments.  :class:`ExperimentRunner` deduplicates that work behind one
canonical schema:

* **One memo schema** — every point, SpArch and baseline alike, is cached
  as a serialised :class:`~repro.metrics.report.CostReport`.  The cache key
  folds in :data:`repro.metrics.SCHEMA_VERSION`, so entries written under
  an older report layout are never deserialised into the new shape — their
  keys simply stop matching and the points recompute.
* **One dispatch** — :meth:`run_engine` / :meth:`run_engine_many` accept an
  :class:`~repro.engines.base.Engine` instance *or a registry name* and
  return cost reports.  The legacy entry points (:meth:`simulate`,
  :meth:`run_baseline`, ...) are thin views that rebuild the native
  :class:`~repro.core.stats.SimulationStats` /
  :class:`~repro.baselines.base.BaselineSummary` from the report's lossless
  ``detail`` payload, so nothing downstream changed numerically.
* **Memoisation** — each point is fingerprinted (SHA-256 over the CSR
  arrays and the engine's model identity) and cached in memory always and
  on disk when a cache directory is configured (``--cache-dir`` on the CLI
  or ``REPRO_CACHE_DIR`` in the environment): JSON files under
  ``<cache_dir>/sim/`` for simulation points and ``<cache_dir>/baseline/``
  for baseline points.
* **Backend sharing** — the execution backend (scalar/vectorized) is
  *excluded* from the fingerprint: the differential harnesses
  (``tests/integration/test_engine_equivalence.py``,
  ``tests/baselines/test_backend_equivalence.py``) prove both backends
  produce identical counters, so results are shared across them — except
  when a backend is explicitly forced (``--engine`` / ``engine=``), in
  which case entries are keyed per backend so the cross-check really
  simulates.
* **Shared dataflows** — :meth:`run_engine_many` groups the uncached
  batched-engine SpArch points that share an operand and every field
  outside :data:`~repro.core.config.PRICING_FIELDS`: each group runs one
  dataflow and prices every point over it
  (:func:`~repro.engines.sparch.run_shared`), so a design-space batch
  multiplies and merges each operand once.  Scalar points, baselines and
  timeout runs never share.
* **Fan-out** — :meth:`run_engine_many` (and everything built on it) runs
  its groups of uncached points through ``concurrent.futures`` worker
  processes (``--jobs`` / ``REPRO_JOBS``), falling back to in-process
  execution for a single job or a single group.

Experiment harnesses accept a ``runner`` keyword and route every point
through this class, so one ``python -m repro.experiments all`` sweep
simulates each shared point once.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path

from repro.baselines.base import BaselineSummary, SpGEMMBaseline
from repro.core.config import BACKENDS, SpArchConfig
from repro.core.stats import SimulationStats
from repro.engines.adapters import BaselineEngineAdapter
from repro.engines.base import Engine
from repro.engines.registry import resolve_engine
from repro.engines.sparch import SpArchEngine, run_shared
from repro.formats.csr import CSRMatrix
from repro.metrics.report import SCHEMA_VERSION, CostReport
from repro.serve.store import ReportStore

#: Environment variables honoured by :func:`default_runner`.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
JOBS_ENV = "REPRO_JOBS"


def matrix_fingerprint(matrix: CSRMatrix) -> str:
    """Content hash of a CSR matrix (shape + structure + values)."""
    digest = hashlib.sha256()
    digest.update(repr(matrix.shape).encode())
    digest.update(matrix.indptr.tobytes())
    digest.update(matrix.indices.tobytes())
    digest.update(matrix.data.tobytes())
    return digest.hexdigest()


def _identity_fingerprint(payload: dict) -> str:
    """Hash a JSON-serialisable identity payload, schema version included.

    Folding :data:`~repro.metrics.SCHEMA_VERSION` into every fingerprint is
    what invalidates pre-refactor cache entries cleanly: a schema bump
    rotates every key, so an old payload is never loaded, let alone
    deserialised into the new :class:`CostReport` shape.
    """
    payload = dict(payload)
    payload["schema"] = SCHEMA_VERSION
    digest = hashlib.sha256()
    digest.update(json.dumps(payload, sort_keys=True, default=str).encode())
    return digest.hexdigest()


def engine_point_key(engine: Engine, matrix_a: CSRMatrix | None,
                     matrix_b: CSRMatrix | None, *,
                     include_backend: bool = False,
                     fingerprint_a: str | None = None,
                     fingerprint_b: str | None = None) -> str:
    """Cache key of one ``A · B`` point under any :class:`Engine`.

    The model identity comes from the engine's own
    :meth:`~repro.engines.base.Engine.cache_fields` (which excludes the
    execution backend by contract); ``include_backend=True`` adds the
    backend for forced cross-check runs.

    Self-products are keyed by *fingerprint equality*, not object identity:
    ``matrix_b=None``, ``matrix_b is matrix_a`` and an equal-content copy
    of ``matrix_a`` all describe the same ``A · A`` computation, so they
    must share one cache entry.  (An earlier revision hashed identity-based
    self-products as a ``b"self"`` sentinel, which gave an equal-content
    copy a different key and silently fragmented the memo.)

    ``fingerprint_a`` / ``fingerprint_b`` accept precomputed
    :func:`matrix_fingerprint` values so grid callers (the sweeps driver
    keys every config cell of a scenario against one operand) hash each
    matrix once instead of once per cell.  With ``fingerprint_a`` given,
    ``matrix_a`` may be ``None`` — a key can be computed for an operand
    that is no longer materialised.
    """
    digest = hashlib.sha256()
    if fingerprint_a is None:
        if matrix_a is None:
            raise ValueError("matrix_a may be None only with fingerprint_a")
        fingerprint_a = matrix_fingerprint(matrix_a)
    if fingerprint_b is None:
        # An explicit fingerprint_b always wins — without it, a missing
        # (or identical) matrix_b means the self-product ``A · A``.
        if matrix_b is None or matrix_b is matrix_a:
            fingerprint_b = fingerprint_a
        else:
            fingerprint_b = matrix_fingerprint(matrix_b)
    digest.update(fingerprint_a.encode())
    digest.update(fingerprint_b.encode())
    digest.update(_engine_identity(engine, include_backend).encode())
    return digest.hexdigest()


def _engine_identity(engine: Engine, include_backend: bool) -> str:
    """The engine's identity fingerprint, derived once per engine instance.

    Engines are immutable values (see :class:`~repro.engines.base.Engine`),
    so ``cache_fields()`` hashed through :func:`_identity_fingerprint`
    never changes for one instance.  Memoising it on the instance, per
    ``include_backend`` value, spares each warm request the dataclass walk,
    JSON encoding and SHA-256 of an unchanged configuration.
    """
    memo = vars(engine).setdefault("_identity_fingerprints", {})
    fingerprint = memo.get(include_backend)
    if fingerprint is None:
        identity = dict(engine.cache_fields())
        if include_backend:
            identity["backend"] = engine.backend
        fingerprint = memo[include_backend] = _identity_fingerprint(identity)
    return fingerprint


def _engine_task(task: tuple[Engine, CSRMatrix, CSRMatrix | None]) -> dict:
    """Worker entry point: run one engine point, return a report dict."""
    engine, matrix_a, matrix_b = task
    return engine.run(matrix_a, matrix_b).report.to_dict()


def _engine_group_task(task: tuple[list[Engine], CSRMatrix, None]
                       ) -> list[dict]:
    """Worker entry point: run one group of points, return report dicts.

    A group is one point, or SpArch points sharing a dataflow
    (:func:`_sharing_id`); :func:`run_shared` runs a one-point group as
    that engine's plain :meth:`~repro.engines.base.Engine.run`.
    """
    engines, matrix_a, matrix_b = task
    return [run.report.to_dict()
            for run in run_shared(engines, matrix_a, matrix_b)]


def _sharing_id(engine: Engine, matrix: CSRMatrix, key: str) -> object:
    """Points with equal ids run one dataflow (see :func:`run_shared`).

    A batched-engine SpArch point's id is its operand object and its
    config's dataflow key; every other point is alone under its own key.
    Operands are compared by identity, which is how grid callers pass one
    scenario's matrix to all its cells.
    """
    if isinstance(engine, SpArchEngine) and engine.backend != "scalar":
        return id(matrix), engine.config.dataflow_key()
    return key


def _engine_task_to_pipe(task, connection) -> None:
    """Timeout-mode worker entry point: report outcome through a pipe."""
    try:
        connection.send(("ok", _engine_task(task)))
    except BaseException as exc:  # noqa: BLE001 — relayed, not swallowed
        try:
            connection.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        connection.close()


def run_tasks_with_timeout(items: list[tuple[str, tuple]], *,
                           timeout: float, jobs: int = 1
                           ) -> dict[str, dict | str | None]:
    """Run engine tasks in killable processes under a wall-clock budget.

    Unlike the :class:`ProcessPoolExecutor` fan-out (whose workers cannot be
    interrupted mid-task without poisoning the pool), each task here runs in
    a dedicated process that is ``SIGKILL``-ed the moment its deadline
    passes — a hung engine costs its own timeout, never the whole batch.
    Each task is one point that runs its own dataflow: nothing is shared,
    so no point waits on another's.

    Args:
        items: ``(key, (engine, matrix_a, matrix_b))`` pairs; keys must be
            unique.
        timeout: per-task wall-clock budget in seconds.
        jobs: concurrently running task processes.

    Returns:
        ``{key: payload}`` where the payload is the report dict on success,
        an error-message string when the engine raised, and ``None`` when
        the task was killed at its deadline (or its process died).
    """
    if timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    context = multiprocessing.get_context()
    pending = deque(items)
    active: dict[object, tuple[str, object, float]] = {}  # conn -> state
    results: dict[str, dict | str | None] = {}
    try:
        while pending or active:
            while pending and len(active) < max(1, jobs):
                key, task = pending.popleft()
                receiver, sender = context.Pipe(duplex=False)
                process = context.Process(target=_engine_task_to_pipe,
                                          args=(task, sender), daemon=True)
                process.start()
                sender.close()
                active[receiver] = (key, process,
                                    time.monotonic() + timeout)
            now = time.monotonic()
            next_deadline = min(deadline for _, _, deadline
                                in active.values())
            ready = _connection_wait(list(active),
                                     timeout=max(0.0, next_deadline - now))
            finished = []
            for receiver in ready:
                key, process, _ = active[receiver]
                try:
                    status, payload = receiver.recv()
                except (EOFError, OSError):
                    status, payload = "died", None
                results[key] = payload if status == "ok" else (
                    payload if status == "error" else None)
                finished.append(receiver)
                process.join()
            now = time.monotonic()
            for receiver, (key, process, deadline) in list(active.items()):
                if receiver in finished:
                    continue
                if now >= deadline:
                    process.kill()
                    process.join()
                    results[key] = None
                    finished.append(receiver)
            for receiver in finished:
                receiver.close()
                del active[receiver]
    finally:
        for key, process, _ in active.values():
            process.kill()
            process.join()
    return results


class ExperimentRunner:
    """Runs engine points with memoisation and optional process fan-out.

    Args:
        cache_dir: directory for the on-disk result cache; ``None`` keeps
            the cache in memory only (one process lifetime).
        jobs: worker processes for :meth:`run_engine_many`; ``1`` runs
            in-process.
        engine: when set, forces the execution *backend* (``"scalar"``,
            ``"vectorized"`` or ``"streaming"``) for every point — the
            SpArch core and every baseline alike — with backend-specific
            cache keys.
    """

    def __init__(self, *, cache_dir: str | os.PathLike | None = None,
                 jobs: int = 1, engine: str | None = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if engine is not None and engine not in BACKENDS:
            raise ValueError(f"unknown engine {engine!r}")
        self._jobs = jobs
        self._engine = engine
        # The memo itself is the shared, concurrent-safe ReportStore — the
        # serving layer reads beside this runner's writers, and threaded
        # callers (each service request runs on its own thread) coalesce
        # duplicate in-flight points into one execution.
        self._store = ReportStore(cache_dir=cache_dir)

    # ------------------------------------------------------------------
    @property
    def cache_dir(self) -> Path | None:
        return self._store.cache_dir

    @property
    def jobs(self) -> int:
        return self._jobs

    @property
    def engine(self) -> str | None:
        return self._engine

    @property
    def store(self) -> ReportStore:
        """The shared report store backing this runner's memo."""
        return self._store

    @property
    def cache_hits(self) -> int:
        """Logical cache hits: store hits plus coalesced waits."""
        return self._store.hits + self._store.coalesced

    @property
    def cache_misses(self) -> int:
        """Cache misses — points actually executed (or fanned out)."""
        return self._store.misses

    def stats(self) -> dict:
        """Cache hit/miss/latency counters, shared with the serve layer.

        One instrumentation point for every execution path: direct
        :meth:`run_engine` calls, :meth:`run_engine_many` batches (sweeps,
        fabric workers) and the service's coalesced requests all count
        into the same :class:`ReportStore` snapshot.
        """
        return self._store.stats()

    # ------------------------------------------------------------------
    def _cache_load(self, key: str, kind: str) -> dict | None:
        return self._store.load(key, kind)

    def _cache_store(self, key: str, payload: dict, kind: str) -> None:
        self._store.store(key, payload, kind)

    @staticmethod
    def _cache_kind(engine: Engine) -> str:
        return "sim" if engine.kind == "simulation" else "baseline"

    def _effective_engine(self, engine: Engine | str) -> Engine:
        """Resolve a name and apply the runner's forced backend, if any."""
        engine = resolve_engine(engine)
        if self._engine is not None and engine.backend != self._engine:
            engine = engine.using_backend(self._engine)
        return engine

    # ------------------------------------------------------------------
    # The unified entry points: any registered engine, cost reports out
    # ------------------------------------------------------------------
    def point_key(self, engine: Engine | str,
                  matrix_a: CSRMatrix | None, *,
                  matrix_b: CSRMatrix | None = None,
                  fingerprint_a: str | None = None,
                  fingerprint_b: str | None = None) -> str:
        """The cache key :meth:`run_engine` would memoise this point under.

        Applies the runner's forced backend (and its backend-specific
        keying), exactly as the execution path does — this is the
        fingerprint the sweep :class:`~repro.sweeps.store.ResultStore`
        records per cell, linking a sweep's results to the runner's memo.
        Precomputed operand fingerprints are forwarded to
        :func:`engine_point_key` (with ``fingerprint_a`` given,
        ``matrix_a`` may be ``None``).
        """
        engine = self._effective_engine(engine)
        return engine_point_key(engine, matrix_a, matrix_b,
                                include_backend=self._engine is not None,
                                fingerprint_a=fingerprint_a,
                                fingerprint_b=fingerprint_b)

    def run_engine(self, engine: Engine | str, matrix_a: CSRMatrix, *,
                   matrix_b: CSRMatrix | None = None) -> CostReport:
        """Run one ``A · B`` point (``B = A`` by default), memoised.

        Returns the point's :class:`CostReport` only — the functional
        result matrix is not cached (no experiment consumes it; the
        differential and property tests exercise it directly through the
        engines).
        """
        engine = self._effective_engine(engine)
        key = engine_point_key(engine, matrix_a, matrix_b,
                               include_backend=self._engine is not None)
        payload, _ = self._store.get_or_compute(
            key, self._cache_kind(engine),
            lambda: _engine_task((engine, matrix_a, matrix_b)))
        return CostReport.from_dict(payload)

    def run_engine_keyed(self, engine: Engine | str, *, key: str,
                         matrix_supplier, setup=None
                         ) -> tuple[CostReport, str]:
        """Run one pre-keyed point whose operand may not be materialised.

        The serving path: the request's :meth:`point_key` is computed from
        the scenario's recipe fingerprint, so a cached point is answered
        without ever building its operand — ``matrix_supplier`` is only
        called when this thread actually executes the engine.  Duplicate
        concurrent calls coalesce into one execution through the store.

        Args:
            engine: engine instance or registry name.
            key: this point's :meth:`point_key`.
            matrix_supplier: zero-argument callable building the operand.
            setup: optional zero-argument callable run by the computing
                thread before the engine (the service's debug delay hook).

        Returns:
            ``(report, outcome)`` with the store outcome — ``"hit"``,
            ``"coalesced"`` or ``"computed"``.
        """
        engine = self._effective_engine(engine)

        def compute() -> dict:
            if setup is not None:
                setup()
            return _engine_task((engine, matrix_supplier(), None))

        payload, outcome = self._store.get_or_compute(
            key, self._cache_kind(engine), compute)
        return CostReport.from_dict(payload), outcome

    def run_engine_many(self, tasks: list[tuple[Engine | str, CSRMatrix]],
                        *, keys: list[str] | None = None,
                        timeout: float | None = None
                        ) -> list[CostReport | None]:
        """Run many ``A · A`` points, fanning uncached ones out.

        Uncached batched-engine SpArch points on one operand object whose
        configs differ only in :data:`~repro.core.config.PRICING_FIELDS`
        form one group: the group runs one dataflow, through the first
        point's :meth:`~repro.engines.base.Engine.run`, and prices every
        other point over it.  Every other point is a group of its own.
        Under ``jobs > 1`` the worker processes receive whole groups, so
        a batch keeps at most as many workers busy as it has groups.

        Args:
            tasks: ``(engine, matrix)`` pairs; order is preserved in the
                returned list and duplicate points compute once.
            keys: optional precomputed :meth:`point_key` values aligned
                with ``tasks`` — grid callers that already fingerprinted
                every point (the sweeps driver) skip re-hashing each
                operand's CSR arrays per task.
            timeout: per-point wall-clock budget in seconds.  With a
                timeout set, every uncached point runs in its own killable
                process (see :func:`run_tasks_with_timeout`) and shares
                no dataflow, and a point that hangs past its budget — or
                raises — yields ``None`` in the returned list instead of a
                report: *failed but retryable*, never cached, so a later
                run re-attempts it.  Without a timeout (the default) the
                returned list never contains ``None`` and engine errors
                propagate.
        """
        engines = [self._effective_engine(engine) for engine, _ in tasks]
        forced = self._engine is not None
        if keys is None:
            keys = [engine_point_key(engine, matrix, None,
                                     include_backend=forced)
                    for engine, (_, matrix) in zip(engines, tasks)]
        elif len(keys) != len(tasks):
            raise ValueError(
                f"keys length {len(keys)} does not match "
                f"{len(tasks)} tasks"
            )
        kinds = [self._cache_kind(engine) for engine in engines]

        missing: dict[str, tuple[Engine, CSRMatrix, None]] = {}
        missing_kinds: dict[str, str] = {}
        for engine, (_, matrix), key, kind in zip(engines, tasks, keys, kinds):
            if self._cache_load(key, kind) is None and key not in missing:
                missing[key] = (engine, matrix, None)
                missing_kinds[key] = kind

        self._store.record_batch(hits=len(keys) - len(missing),
                                 misses=len(missing))
        if missing and timeout is not None:
            outcomes = run_tasks_with_timeout(list(missing.items()),
                                              timeout=timeout,
                                              jobs=self._jobs)
            for key, payload in outcomes.items():
                # Only successful points enter the memo: a timed-out or
                # failed point stays uncached so a retry really retries.
                if isinstance(payload, dict):
                    self._cache_store(key, payload, missing_kinds[key])
        elif missing:
            groups: dict[object, list[str]] = {}
            for key, (engine, matrix, _) in missing.items():
                groups.setdefault(_sharing_id(engine, matrix, key),
                                  []).append(key)
            group_keys = list(groups.values())
            group_tasks = [([missing[key][0] for key in members],
                            missing[members[0]][1], None)
                           for members in group_keys]
            if self._jobs > 1 and len(group_tasks) > 1:
                with ProcessPoolExecutor(max_workers=self._jobs) as pool:
                    payloads = list(pool.map(_engine_group_task, group_tasks))
            else:
                payloads = [_engine_group_task(task) for task in group_tasks]
            for members, group_payloads in zip(group_keys, payloads):
                for key, payload in zip(members, group_payloads):
                    self._cache_store(key, payload, missing_kinds[key])

        reports: list[CostReport | None] = []
        for key, kind in zip(keys, kinds):
            payload = self._cache_load(key, kind)
            reports.append(CostReport.from_dict(payload)
                           if payload is not None else None)
        if timeout is None:
            assert all(report is not None for report in reports)
        return reports

    # ------------------------------------------------------------------
    # SpArch views (native SimulationStats out)
    # ------------------------------------------------------------------
    def simulate(self, matrix_a: CSRMatrix, config: SpArchConfig | None = None,
                 *, matrix_b: CSRMatrix | None = None) -> SimulationStats:
        """Simulate ``A · B`` (``B = A`` by default), memoised.

        A view over :meth:`run_engine`: the native statistics are rebuilt
        losslessly from the memoised report's ``detail`` payload.
        """
        return self.run_engine(SpArchEngine(config or SpArchConfig()),
                               matrix_a, matrix_b=matrix_b).to_stats()

    def simulate_many(self, tasks: list[tuple[CSRMatrix, SpArchConfig | None]]
                      ) -> list[SimulationStats]:
        """Simulate many ``A · A`` points, fanning uncached ones out."""
        reports = self.run_engine_many(
            [(SpArchEngine(config or SpArchConfig()), matrix)
             for matrix, config in tasks])
        return [report.to_stats() for report in reports]

    def simulate_workload(self, workload: dict[str, tuple[CSRMatrix, SpArchConfig | None]]
                          ) -> dict[str, SimulationStats]:
        """Simulate a named ``{name: (matrix, config)}`` workload."""
        names = list(workload)
        stats = self.simulate_many([workload[name] for name in names])
        return dict(zip(names, stats))

    # ------------------------------------------------------------------
    # Baseline views (native BaselineSummary out)
    # ------------------------------------------------------------------
    def run_baseline(self, baseline: SpGEMMBaseline, matrix_a: CSRMatrix, *,
                     matrix_b: CSRMatrix | None = None) -> BaselineSummary:
        """Run one baseline point (``B = A`` by default), memoised."""
        report = self.run_engine(BaselineEngineAdapter(baseline), matrix_a,
                                 matrix_b=matrix_b)
        return report.to_baseline_summary()

    def run_baseline_many(self, tasks: list[tuple[SpGEMMBaseline, CSRMatrix]]
                          ) -> list[BaselineSummary]:
        """Run many baseline ``A · A`` points, fanning uncached ones out."""
        reports = self.run_engine_many(
            [(BaselineEngineAdapter(baseline), matrix)
             for baseline, matrix in tasks])
        return [report.to_baseline_summary() for report in reports]


_default_runner: ExperimentRunner | None = None


def default_runner() -> ExperimentRunner:
    """Process-wide runner used when a harness is called without one.

    Honours ``REPRO_CACHE_DIR`` (disk cache location; unset keeps the cache
    in memory) and ``REPRO_JOBS`` (fan-out width, default 1).
    """
    global _default_runner
    if _default_runner is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV) or None
        jobs = int(os.environ.get(JOBS_ENV, "1") or "1")
        _default_runner = ExperimentRunner(cache_dir=cache_dir, jobs=jobs)
    return _default_runner


def set_default_runner(runner: ExperimentRunner | None) -> None:
    """Install (or with ``None``, reset) the process-wide default runner."""
    global _default_runner
    _default_runner = runner
