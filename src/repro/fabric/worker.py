"""Fabric workers: lease, heartbeat, compute, deliver, repeat.

A worker owns no sweep state.  It asks the coordinator's ``describe`` for
the sweep id and corpus scale, rebuilds the canonical grid locally from
the registry, and then loops: ``acquire`` a cell lease, compute the cell,
``complete`` with the record — heartbeating from a side thread the whole
time so a *slow* cell keeps its lease while a *dead* worker's lease
expires and is reclaimed.

:class:`CellExecutor` replicates ``run_sweep``'s execution exactly — same
fingerprint memo, same point key, same ``run_engine_many`` path (including
the per-cell wall-clock timeout), and the same record constructor
(:func:`repro.sweeps.driver._cell_record`) — which is load-bearing: the
byte-parity invariant of the fabric rests on every worker producing
byte-identical records for a given cell, no matter which worker runs it or
on which attempt.
"""

from __future__ import annotations

import dataclasses
import threading
import time

from repro.corpus.spec import scenario_fingerprint
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.formats.csr import CSRMatrix
from repro.sweeps.driver import _cell_engine, _cell_record
from repro.sweeps.registry import get_sweep
from repro.sweeps.spec import SweepCell, SweepSpec, enumerate_cells
from repro.sweeps.store import SweepRecord


class CellExecutionError(RuntimeError):
    """A cell's engine hung past ``cell_timeout`` or raised."""


class CellExecutor:
    """Executes grid cells into records, byte-identical to ``run_sweep``.

    Args:
        spec: the sweep declaration (same registry entry the coordinator
            enumerated).
        runner: experiment runner — shares its memo across cells, so a
            retried or duplicate-leased cell replays instead of
            re-simulating.
        max_rows: corpus scale cap; must equal the coordinator's.
        cell_timeout: per-cell wall-clock budget (from the coordinator's
            policy); a hung engine raises :class:`CellExecutionError`
            instead of wedging the worker.
    """

    def __init__(self, spec: SweepSpec, *,
                 runner: ExperimentRunner | None = None,
                 max_rows: int | None = None,
                 cell_timeout: float | None = None) -> None:
        self._spec = spec
        self._runner = runner or default_runner()
        self._cell_timeout = cell_timeout
        self._corpus = spec.corpus_spec(max_rows=max_rows)
        self._cells: dict[int, SweepCell] = {
            cell.index: cell
            for cell in enumerate_cells(spec, max_rows=max_rows)
        }
        self._engines: dict[tuple[str, str], object] = {}
        # Single-slot operand cache: the coordinator grants cells in
        # canonical (scenario-major) order, so consecutive leases usually
        # share a scenario; one matrix at a time bounds worker memory the
        # same way run_sweep's chunked execution does.
        self._matrix: tuple[str | None, CSRMatrix | None] = (None, None)

    def execute(self, cell_index: int) -> SweepRecord:
        """Compute one cell and return its store record.

        Raises:
            KeyError: ``cell_index`` is not in the grid.
            CellExecutionError: the engine timed out or crashed under
                ``cell_timeout``.
        """
        cell = self._cells[cell_index]
        engine = _cell_engine(cell, self._engines)
        scenario = self._corpus.get_scenario(cell.scenario.name)
        fingerprint = scenario_fingerprint(scenario)
        key = self._runner.point_key(engine, None,
                                     fingerprint_a=fingerprint)
        if self._matrix[0] != scenario.name:
            self._matrix = (scenario.name, scenario.build())
        [report] = self._runner.run_engine_many(
            [(engine, self._matrix[1])], keys=[key],
            timeout=self._cell_timeout)
        if report is None:
            raise CellExecutionError(
                f"cell {cell.cell_id} timed out or crashed under "
                f"cell_timeout={self._cell_timeout}")
        return _cell_record(self._spec, cell, key, report)


class _Heartbeat:
    """Background pinger keeping one lease alive while a cell computes.

    Manager proxies open one connection per calling thread, so beating
    from a daemon thread is safe alongside the main loop's RPCs.  Any
    transport error (coordinator gone) just stops the beat — the lease
    then expires on its own, which is the correct failure semantics.
    """

    def __init__(self, service, lease_id: str, interval: float) -> None:
        self._service = service
        self._lease_id = lease_id
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                if not self._service.heartbeat(self._lease_id):
                    return  # reclaimed; deliver anyway, dedupe decides
            except Exception:
                return


def worker_loop(service, worker_id: str, *,
                runner: ExperimentRunner | None = None,
                throttle: float = 0.0,
                max_cells: int | None = None,
                sleep=time.sleep) -> int:
    """Drain the coordinator's queue; returns cells completed.

    Args:
        service: a :class:`~repro.fabric.coordinator.Coordinator` or a
            transport proxy to one.
        worker_id: this worker's name in leases and logs.
        runner: experiment runner for the executor.
        throttle: optional sleep (seconds) before each cell — a pacing
            aid that gives fleet chaos tests a deterministic window to
            SIGKILL a worker *while it holds a lease*.
        max_cells: stop after completing this many cells (tests).
        sleep: injectable sleep for tests.
    """
    info = service.describe()
    spec = get_sweep(info["sweep_id"])
    policy = info["policy"]
    executor = CellExecutor(spec, runner=runner,
                            max_rows=info["max_rows"],
                            cell_timeout=policy.get("cell_timeout"))
    interval = max(policy["lease_duration"] / 4.0, 0.05)
    completed = 0
    while True:
        grant = service.acquire(worker_id)
        if grant["status"] == "done":
            return completed
        if grant["status"] == "wait":
            sleep(min(grant["seconds"] or interval, interval))
            continue
        lease_id = grant["lease_id"]
        cell_index = grant["cell_index"]
        with _Heartbeat(service, lease_id,
                        grant.get("heartbeat_interval", interval)):
            try:
                if throttle > 0:
                    sleep(throttle)
                record = executor.execute(cell_index)
            except Exception as exc:
                record = None
                error = f"{type(exc).__name__}: {exc}"
        if record is None:
            service.fail(worker_id, lease_id, cell_index, error)
            continue
        service.complete(worker_id, lease_id, dataclasses.asdict(record))
        completed += 1
        if max_cells is not None and completed >= max_cells:
            return completed
