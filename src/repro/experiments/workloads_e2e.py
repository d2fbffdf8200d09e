"""End-to-end workload comparison: every registered pipeline, every backend.

The paper motivates SpArch with applications that chain many SpGEMMs
(triangle counting, Markov clustering).  This harness goes beyond the
paper's single-kernel figures: it runs every workload registered in
:mod:`repro.workloads` on benchmark-suite proxies, once under the SpArch
simulator and once under each comparison baseline, and reports the
end-to-end cycles / DRAM bytes / energy of the whole pipeline — the
application-level counterpart of Figures 11 and 12.

Backends are dispatched through the engine registry
(:mod:`repro.engines`): each run hands one engine to
:func:`~repro.workloads.registry.run_workload`, with no per-backend
branches.  Each pipeline run reduces to one aggregate
:class:`~repro.metrics.report.CostReport`, which is the only thing the
comparison consumes — so the sweep parallelises cleanly:

* **serial** (default): every SpGEMM stage routes through the
  :class:`~repro.experiments.runner.ExperimentRunner` fingerprint cache, so
  stages shared between workloads (the adjacency square of ``triangles``
  and ``khop``, for example) simulate once, and re-running the sweep
  replays from the memo;
* **fan-out** (``--jobs N`` / a runner with ``jobs > 1``): whole
  ``(workload, backend, matrix)`` pipeline runs are shipped to worker
  processes, each with its own in-memory memo.  Workers return aggregate
  cost reports, so the fan-out produces *identical* tables to the serial
  path (``tests/workloads/test_experiment_fanout.py`` proves it); the
  trade is cross-workload cache sharing for wall-clock parallelism.

All backends traverse identical intermediate matrices (the pipeline's
canonical functional path), which keeps the comparison apples-to-apples.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from repro.core.config import SpArchConfig
from repro.engines.base import Engine
from repro.engines.sparch import SpArchEngine
from repro.experiments.common import ExperimentResult, display_names
from repro.experiments.fig11_speedup import default_baselines
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.formats.csr import CSRMatrix
from repro.matrices.suite import load_benchmark
from repro.metrics.report import CostReport
from repro.utils.maths import geometric_mean
from repro.utils.reporting import Table
from repro.workloads.registry import get_workload, list_workloads, run_workload

#: Suite matrices the comparison runs on by default — a small, structurally
#: diverse subset so the multi-SpGEMM pipelines stay tractable for a pure
#: Python simulator (override with ``names=``).
DEFAULT_NAMES = ["wiki-Vote", "ca-CondMat", "p2p-Gnutella31"]

#: Per-workload parameters applied in sweeps, capping iterative pipelines
#: at a scale where a full workload × backend × matrix sweep stays fast.
SWEEP_PARAMS: dict[str, dict] = {
    "mcl": {"max_iterations": 4},
    "khop": {"k": 3},
    "pagerank": {"max_iterations": 8},
    "amg_vcycle": {"max_levels": 3},
    "gnn_sample": {"layers": 2},
    "serve_mix": {"batch": 4},
}


def _run_one(workload_id: str, params: dict, matrix: CSRMatrix,
             engine: Engine, runner: ExperimentRunner) -> CostReport:
    """Run one (workload, backend, matrix) pipeline; aggregate its cost."""
    result = run_workload(workload_id, matrix, engine=engine, runner=runner,
                          **params)
    return result.aggregate_report()


def _workload_task(task: tuple[str, dict, CSRMatrix, Engine, str | None,
                               str | None]) -> dict:
    """Worker entry point: one pipeline run, aggregate report dict out.

    Each worker gets a fresh runner honouring the parent's forced backend
    and disk cache directory — so repeated stages *within* the pipeline
    memoise exactly as on the serial path, and stage reports still land in
    (and replay from) the shared on-disk memo.  Concurrent writers are
    safe: cache entries are written atomically (tmp + rename).
    """
    workload_id, params, matrix, engine, forced_backend, cache_dir = task
    local_runner = ExperimentRunner(engine=forced_backend,
                                    cache_dir=cache_dir)
    return _run_one(workload_id, params, matrix, engine,
                    local_runner).to_dict()


def _sweep_reports(workload_ids: list[str], matrices: dict[str, CSRMatrix],
                   engines: list[Engine], runner: ExperimentRunner
                   ) -> dict[tuple[str, str], list[CostReport]]:
    """Aggregate reports of every (workload, backend) pair, per matrix.

    Serial when the runner has one job (shared fingerprint cache across
    workloads and backends); process fan-out over whole pipeline runs when
    ``runner.jobs > 1``.
    """
    grid = [(workload_id, SWEEP_PARAMS.get(workload_id, {}), name, engine)
            for workload_id in workload_ids
            for engine in engines
            for name in matrices]
    if runner.jobs > 1 and len(grid) > 1:
        cache_dir = str(runner.cache_dir) if runner.cache_dir else None
        tasks = [(workload_id, params, matrices[name], engine, runner.engine,
                  cache_dir)
                 for workload_id, params, name, engine in grid]
        with ProcessPoolExecutor(max_workers=runner.jobs) as pool:
            payloads = list(pool.map(_workload_task, tasks))
        reports = [CostReport.from_dict(payload) for payload in payloads]
    else:
        reports = [_run_one(workload_id, params, matrices[name], engine,
                            runner)
                   for workload_id, params, name, engine in grid]
    per_pair: dict[tuple[str, str], list[CostReport]] = {}
    for (workload_id, _, _, engine), report in zip(grid, reports):
        per_pair.setdefault((workload_id, engine.display_name),
                            []).append(report)
    return per_pair


def run(*, max_rows: int = 400, names: list[str] | None = None,
        workload_ids: list[str] | None = None,
        baselines: list[Engine] | None = None,
        config: SpArchConfig | None = None,
        runner: ExperimentRunner | None = None) -> ExperimentResult:
    """Run every registered workload under SpArch and the baselines.

    Args:
        max_rows: proxy dimension cap for the suite matrices.
        names: benchmark subset (structurally diverse trio by default).
        workload_ids: workload subset (every registered workload by default).
        baselines: comparison systems (the paper's five by default).
        config: SpArch configuration (Table I by default).
        runner: experiment runner providing memoised/batched execution;
            ``runner.jobs > 1`` fans whole pipeline runs out over worker
            processes.
    """
    names = names if names is not None else list(DEFAULT_NAMES)
    workload_ids = (workload_ids if workload_ids is not None
                    else list_workloads())
    baselines = baselines if baselines is not None else default_baselines()
    runner = runner or default_runner()
    engines = [SpArchEngine(config or SpArchConfig()), *baselines]
    labels = display_names(engines)  # per_pair is keyed by these
    sparch_name = labels[0]
    for workload_id in workload_ids:
        get_workload(workload_id)  # fail fast with the helpful unknown-id error
    matrices = {name: load_benchmark(name, max_rows=max_rows)
                for name in names}

    table = Table(
        title="Workloads — end-to-end pipeline cost, SpArch vs baselines "
              f"(sum over {', '.join(names)})",
        columns=["workload", "backend", "SpGEMMs", "cycles", "runtime [s]",
                 "DRAM [B]", "energy [J]", "speedup", "energy saving"],
    )
    metrics: dict[str, float] = {}
    experiment_reports: dict[str, CostReport] = {}

    per_pair = _sweep_reports(workload_ids, matrices, engines, runner)
    for workload_id in workload_ids:
        per_backend = {label: per_pair[(workload_id, label)]
                       for label in labels}
        sparch = per_backend[sparch_name]
        for backend_name, reports in per_backend.items():
            is_sparch = backend_name == sparch_name
            speedup = geometric_mean([
                other.runtime_seconds / max(ours.runtime_seconds, 1e-15)
                for other, ours in zip(reports, sparch)
            ])
            saving = geometric_mean([
                other.energy_joules / max(ours.energy_joules, 1e-18)
                for other, ours in zip(reports, sparch)
            ])
            total = CostReport.aggregate(reports, engine=backend_name)
            experiment_reports[f"{workload_id}[{backend_name}]"] = total
            spgemms = sum(report.extras.get("spgemm_stages", 0.0)
                          for report in reports)
            table.add_row(
                workload_id,
                backend_name,
                int(spgemms),
                total.cycles if is_sparch else "-",
                total.runtime_seconds,
                total.dram_bytes,
                total.energy_joules,
                speedup,
                saving,
            )
            if is_sparch:
                metrics[f"sparch_cycles[{workload_id}]"] = float(total.cycles)
                metrics[f"sparch_dram_bytes[{workload_id}]"] = (
                    float(total.dram_bytes))
                metrics[f"sparch_energy_joules[{workload_id}]"] = (
                    total.energy_joules)
            else:
                metrics[f"speedup[{workload_id}][{backend_name}]"] = speedup
                metrics[f"energy_saving[{workload_id}][{backend_name}]"] = saving

    return ExperimentResult(
        experiment_id="workloads",
        title="End-to-end workload pipelines: SpArch vs baselines",
        table=table,
        metrics=metrics,
        notes=[
            f"benchmark proxies capped at {max_rows} rows; workloads: "
            f"{', '.join(workload_ids)}; speedup/energy saving are geometric "
            "means of per-matrix end-to-end ratios vs SpArch",
            "baseline platforms model runtime, not cycles ('-' entries); "
            "host stages (mask/inflate/prune/normalise) are charged zero "
            "accelerator cost on every backend",
        ],
        reports=experiment_reports,
    )

