"""Multi-stage SpGEMM pipelines.

A *workload* is a DAG of named stages over sparse matrices.  Stages come in
two kinds:

* **SpGEMM stages** — sparse matrix-matrix products on the one engine
  the :class:`PipelineBuilder` holds: any registered engine
  (:mod:`repro.engines`) — the SpArch simulator or any comparison
  baseline — addressed by name or instance, either executed directly or
  with its :class:`~repro.metrics.report.CostReport` memoised through the
  :class:`~repro.experiments.runner.ExperimentRunner` fingerprint cache.
  Each stage records the engine's full cost report — cycles, runtime,
  DRAM traffic, energy — in a :class:`StageResult`.
* **Host stages** — element-wise / normalise / prune / mask operations from
  :mod:`repro.workloads.ops`, executed on the host and charged zero
  accelerator cost.

Pipelines are *define-by-run*: the compiler's executor
(:mod:`repro.workloads.compiler.execute`) walks a compiled spec and
declares its stages on a :class:`PipelineBuilder` — data-dependent
control flow such as MCL's convergence loop is resolved as it runs — and
each stage executes as it is declared while the DAG (names, kinds,
dependencies) is recorded into the resulting :class:`WorkloadResult`.

Functional semantics: in direct mode the pipeline threads the engine's
own result matrix to downstream stages, so the applications in
:mod:`repro.apps` return exactly what driving the engine by hand would.
When the pipeline memoises cost reports through the experiment runner,
the functional product comes from one canonical exact host path instead —
every backend then traverses identical intermediate matrices, which is
what makes end-to-end backend comparisons apples-to-apples and cached
re-runs incremental.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import scipy.sparse as sp

from repro.core.stats import SimulationStats
from repro.engines.base import Engine
from repro.engines.registry import resolve_engine
from repro.formats.convert import from_scipy, to_scipy
from repro.formats.csr import CSRMatrix
from repro.metrics.report import CostReport
from repro.workloads.ops import apply_host_op

if TYPE_CHECKING:  # the runner is only an annotation here; importing it at
    # runtime would close an import cycle (experiments.registry imports the
    # workloads experiment, which imports this module)
    from repro.experiments.runner import ExperimentRunner

#: Stage kind of SpGEMM stages (host stages use their op name as the kind).
SPGEMM_KIND = "spgemm"


@dataclass
class StageResult:
    """Record of one executed pipeline stage.

    Attributes:
        name: unique stage name within the pipeline.
        kind: ``"spgemm"`` or the host-op name.
        inputs: names of the values (inputs or earlier stages) consumed.
        output_shape: shape of the stage's result matrix.
        output_nnz: stored nonzeros of the stage's result.
        cycles: simulated accelerator cycles (SpArch stages; baselines model
            runtime, not cycles).
        runtime_seconds: modelled kernel runtime of the stage.
        dram_bytes: modelled main-memory traffic of the stage.
        energy_joules: modelled dynamic energy of the stage.
        multiplications: scalar multiplications performed by the kernel.
        additions: scalar additions performed by the kernel.
        host_seconds: measured host wall-time of the stage (host stages
            only; SpGEMM stages keep 0).  Excluded from equality — it is
            a measurement, not modelled cost, so cached re-runs still
            compare equal.
        report: the stage's canonical cost report (SpGEMM stages only).
        stats: full simulator statistics (SpArch stages only; a lossless
            view over ``report``).
    """

    name: str
    kind: str
    inputs: tuple[str, ...]
    output_shape: tuple[int, int]
    output_nnz: int
    cycles: int = 0
    runtime_seconds: float = 0.0
    dram_bytes: int = 0
    energy_joules: float = 0.0
    multiplications: int = 0
    additions: int = 0
    host_seconds: float = field(default=0.0, compare=False)
    report: CostReport | None = None
    stats: SimulationStats | None = None

    @property
    def is_spgemm(self) -> bool:
        """True for SpGEMM stages, False for host stages."""
        return self.kind == SPGEMM_KIND


@dataclass
class WorkloadResult:
    """Outcome of one workload pipeline execution.

    Two runs of the same workload on the same input under the same backend
    compare equal (the result matrix is excluded from equality — the cached
    re-run property test relies on this).

    Attributes:
        workload_id: registry id of the workload ("mcl", "khop", ...).
        backend: name of the SpGEMM backend ("SpArch", "MKL", ...).
        stages: per-stage records in execution order.
        annotations: workload-level scalars set by the spec
            (iterations, convergence flags, derived counts, ...).
        output: the designated output matrix, excluded from equality.
    """

    workload_id: str
    backend: str
    stages: list[StageResult]
    annotations: dict[str, float] = field(default_factory=dict)
    output: CSRMatrix | None = field(default=None, compare=False, repr=False)

    # ------------------------------------------------------------------
    @property
    def num_stages(self) -> int:
        """Number of executed stages (SpGEMM and host alike)."""
        return len(self.stages)

    @property
    def spgemm_stages(self) -> list[StageResult]:
        """The SpGEMM stages, in execution order."""
        return [stage for stage in self.stages if stage.is_spgemm]

    @property
    def spgemm_stats(self) -> list[SimulationStats]:
        """Simulator statistics of every SpArch SpGEMM stage."""
        return [stage.stats for stage in self.stages if stage.stats is not None]

    @property
    def total_cycles(self) -> int:
        """Accelerator cycles summed over all stages."""
        return sum(stage.cycles for stage in self.stages)

    @property
    def total_runtime_seconds(self) -> float:
        """Modelled kernel runtime summed over all stages."""
        return sum(stage.runtime_seconds for stage in self.stages)

    @property
    def total_dram_bytes(self) -> int:
        """Modelled DRAM traffic summed over all stages."""
        return sum(stage.dram_bytes for stage in self.stages)

    @property
    def total_energy_joules(self) -> float:
        """Modelled dynamic energy summed over all stages."""
        return sum(stage.energy_joules for stage in self.stages)

    @property
    def total_multiplications(self) -> int:
        """Scalar multiplications summed over all stages."""
        return sum(stage.multiplications for stage in self.stages)

    @property
    def total_additions(self) -> int:
        """Scalar additions summed over all stages."""
        return sum(stage.additions for stage in self.stages)

    @property
    def total_host_seconds(self) -> float:
        """Measured host wall-time summed over all host stages."""
        return sum(stage.host_seconds for stage in self.stages)

    @property
    def host_stages(self) -> list[StageResult]:
        """The host (non-SpGEMM) stages, in execution order."""
        return [stage for stage in self.stages if not stage.is_spgemm]

    def summary(self) -> dict[str, float]:
        """Flat dict of the headline numbers, for reporting and JSON."""
        payload = {
            "num_stages": float(self.num_stages),
            "spgemm_stages": float(len(self.spgemm_stages)),
            "cycles": float(self.total_cycles),
            "runtime_seconds": self.total_runtime_seconds,
            "dram_bytes": float(self.total_dram_bytes),
            "energy_joules": self.total_energy_joules,
            "multiplications": float(self.total_multiplications),
            "additions": float(self.total_additions),
        }
        payload.update(self.annotations)
        return payload

    def aggregate_report(self, *,
                         include_host_seconds: bool = False) -> CostReport:
        """One ``kind="aggregate"`` cost report summing the SpGEMM stages.

        Host stages are charged zero accelerator cost, so the aggregate of
        the SpGEMM stage reports is the pipeline's end-to-end cost in the
        canonical schema (counters, per-category traffic and per-module
        energy all add up).  Workload annotations ride along as extras.

        ``include_host_seconds=True`` adds the measured host wall-time as
        an extra — off by default because wall-time is nondeterministic
        and aggregate reports are compared for equality across runs (the
        fan-out parity tests rely on that).
        """
        reports = [stage.report for stage in self.stages
                   if stage.report is not None]
        extras = dict(self.annotations)
        extras["num_stages"] = float(self.num_stages)
        extras["spgemm_stages"] = float(len(self.spgemm_stages))
        if include_host_seconds:
            extras["host_seconds"] = self.total_host_seconds
        return CostReport.aggregate(reports, engine=self.backend,
                                    extras=extras)


# ----------------------------------------------------------------------
# The builder
# ----------------------------------------------------------------------
class PipelineBuilder:
    """Define-by-run pipeline context the compiled specs execute on.

    Values (pipeline inputs and stage outputs) live in one namespace and
    are referred to by name; each :meth:`spgemm` / :meth:`host` call
    executes immediately and appends a :class:`StageResult` to the record.

    SpGEMM stages run on one engine in one of two modes:

    * **direct mode** (default): calls :meth:`Engine.run` and threads the
      engine's own exact result matrix through the pipeline — parity with
      driving the simulator or baseline by hand.
    * **runner mode** (``runner=``): memoises each stage's
      :class:`~repro.metrics.report.CostReport` through the
      :class:`ExperimentRunner` fingerprint cache, so re-running a pipeline
      (or sharing stages between sweeps) replays instead of re-simulating;
      the functional product comes from the pipeline's canonical host path.

    Args:
        engine: a registry name ("sparch", "mkl", "outerspace", ...) or an
            :class:`~repro.engines.base.Engine` instance.
        runner: experiment runner (runner mode).
        inputs: named input matrices, e.g. ``{"A": matrix}``.
    """

    def __init__(self, engine: Engine | str, *,
                 runner: ExperimentRunner | None = None,
                 inputs: dict[str, CSRMatrix]) -> None:
        if not inputs:
            raise ValueError("a pipeline needs at least one input matrix")
        self._engine = resolve_engine(engine)
        self._runner = runner
        self._values: dict[str, sp.csr_matrix] = {}
        self._stages: list[StageResult] = []
        self._annotations: dict[str, float] = {}
        self._input_names = tuple(inputs)
        for name, matrix in inputs.items():
            self._store(name, to_scipy(matrix))

    # ------------------------------------------------------------------
    @property
    def stages(self) -> list[StageResult]:
        """Stage records so far, in execution order."""
        return list(self._stages)

    def shape(self, name: str) -> tuple[int, int]:
        """Shape of a named value."""
        return self._get(name).shape

    def scipy_value(self, name: str) -> sp.csr_matrix:
        """The named value as a scipy CSR matrix (treat as read-only)."""
        return self._get(name)

    def value(self, name: str) -> CSRMatrix:
        """The named value as a :class:`CSRMatrix`."""
        return from_scipy(self._get(name))

    def annotate(self, key: str, value: float) -> None:
        """Record one workload-level scalar (iterations, counts, flags)."""
        self._annotations[key] = float(value)

    # ------------------------------------------------------------------
    def _get(self, name: str) -> sp.csr_matrix:
        try:
            return self._values[name]
        except KeyError:
            raise KeyError(
                f"unknown pipeline value {name!r}; known values: "
                f"{', '.join(self._values)}"
            ) from None

    def _store(self, name: str, value: sp.spmatrix) -> None:
        if name in self._values:
            raise ValueError(f"pipeline value {name!r} already exists")
        canonical = sp.csr_matrix(value)
        canonical.sum_duplicates()
        canonical.sort_indices()
        self._values[name] = canonical

    def _record(self, stage: StageResult) -> None:
        self._stages.append(stage)

    # ------------------------------------------------------------------
    def spgemm(self, name: str, left: str, right: str) -> str:
        """Declare and execute one SpGEMM stage ``left · right``.

        Returns ``name`` so programs can chain stages functionally.
        """
        matrix_a = from_scipy(self._get(left))
        # Self-products share one operand object so the runner's cache key
        # takes its A·A fast path consistently across runs.
        matrix_b = matrix_a if right == left else from_scipy(self._get(right))
        if self._runner is not None:
            report = self._runner.run_engine(self._engine, matrix_a,
                                             matrix_b=matrix_b)
            product: sp.spmatrix = (self._get(left) @ self._get(right)).tocsr()
        else:
            run = self._engine.run(matrix_a, matrix_b)
            report = run.report
            product = to_scipy(run.matrix)
        self._store(name, product)
        stored = self._values[name]
        self._record(StageResult(
            name=name,
            kind=SPGEMM_KIND,
            inputs=(left, right),
            output_shape=stored.shape,
            output_nnz=int(stored.nnz),
            cycles=report.cycles,
            runtime_seconds=report.runtime_seconds,
            dram_bytes=report.dram_bytes,
            energy_joules=report.energy_joules,
            multiplications=report.multiplications,
            additions=report.additions,
            report=report,
            stats=(report.to_stats() if report.kind == "simulation"
                   else None),
        ))
        return name

    def host(self, name: str, op: str, *operands: str, **params) -> str:
        """Declare and execute one host stage ``op(*operands, **params)``.

        Returns ``name`` so programs can chain stages functionally.
        Unknown ops and signature mismatches raise with the stage name and
        the registered vocabulary; the measured wall-time of the op lands
        in the record's ``host_seconds``.
        """
        values = [self._get(operand) for operand in operands]
        started = time.perf_counter()
        result = apply_host_op(op, values, params, stage=name)
        elapsed = time.perf_counter() - started
        self._store(name, result)
        stored = self._values[name]
        self._record(StageResult(
            name=name,
            kind=op,
            inputs=tuple(operands),
            output_shape=stored.shape,
            output_nnz=int(stored.nnz),
            host_seconds=elapsed,
        ))
        return name

    def host_fused(self, name: str,
                   steps: list[tuple[str, tuple[str, ...], dict]],
                   *operands: str) -> str:
        """Declare and execute one *fused* host stage.

        ``steps`` is the collapsed op run produced by the compiler's
        fusion pass: ``(op, extra_operands, params)`` triples.  The first
        op consumes ``operands``; every later op consumes the running
        result plus its extras.  Only the final value is stored as a
        pipeline value, and the whole run is one ``StageResult`` of kind
        ``fused(op1+op2+…)`` — which is the fusion win: fewer records,
        fewer materialised intermediates.
        """
        inputs = list(operands)
        values = [self._get(operand) for operand in operands]
        elapsed = 0.0
        result: sp.spmatrix | None = None
        for index, (op, extras, params) in enumerate(steps):
            inputs.extend(extras)
            extra_values = [self._get(extra) for extra in extras]
            step_operands = (values + extra_values if index == 0
                             else [result] + extra_values)
            started = time.perf_counter()
            result = apply_host_op(op, step_operands, params, stage=name)
            elapsed += time.perf_counter() - started
        if result is None:
            raise ValueError(f"fused stage {name!r} has no steps")
        self._store(name, result)
        stored = self._values[name]
        self._record(StageResult(
            name=name,
            kind="fused(" + "+".join(op for op, _, _ in steps) + ")",
            inputs=tuple(inputs),
            output_shape=stored.shape,
            output_nnz=int(stored.nnz),
            host_seconds=elapsed,
        ))
        return name

    # ------------------------------------------------------------------
    def result(self, workload_id: str, output: str | None = None
               ) -> WorkloadResult:
        """Close the pipeline and return its :class:`WorkloadResult`."""
        return WorkloadResult(
            workload_id=workload_id,
            backend=self._engine.display_name,
            stages=list(self._stages),
            annotations=dict(self._annotations),
            output=self.value(output) if output is not None else None,
        )
