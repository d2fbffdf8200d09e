"""Baseline simulators as registry engines."""

from __future__ import annotations

from repro.baselines.base import BaselineResult, SpGEMMBaseline
from repro.engines.base import Engine, EngineRun
from repro.formats.csr import CSRMatrix
from repro.metrics.report import CostReport

#: Registry ids whose baseline display name does not lowercase to them.
#: Kept in sync by ``tests/engines/test_engine_registry.py``, which checks
#: every registered baseline round-trips to its registry id.
_REGISTRY_IDS = {"HeapSpGEMM": "heap"}


class BaselineEngineAdapter(Engine):
    """Any :class:`~repro.baselines.base.SpGEMMBaseline` as an engine.

    Args:
        baseline: the wrapped baseline simulator.
        name: registry id; defaults to the id registered for the
            baseline's display name ("MKL" → "mkl").
    """

    kind = "baseline"

    def __init__(self, baseline: SpGEMMBaseline, *, name: str | None = None
                 ) -> None:
        self._baseline = baseline
        self.name = name or _REGISTRY_IDS.get(baseline.name,
                                              baseline.name.lower())
        self.display_name = baseline.name

    # ------------------------------------------------------------------
    @property
    def baseline(self) -> SpGEMMBaseline:
        """The wrapped baseline simulator."""
        return self._baseline

    @property
    def backend(self) -> str:
        return getattr(self._baseline, "engine", "scalar")

    def using_backend(self, backend: str) -> "BaselineEngineAdapter":
        pinned = self._baseline.using_engine(backend)
        if pinned is self._baseline:
            return self
        return BaselineEngineAdapter(pinned, name=self.name)

    def cache_fields(self) -> dict:
        """Cache identity: the baseline's model identity, backend excluded
        (re-added by the runner only for forced cross-check runs)."""
        return dict(self._baseline.cache_fields())

    # ------------------------------------------------------------------
    def run(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix | None = None
            ) -> EngineRun:
        right = matrix_a if matrix_b is None else matrix_b
        result = self._baseline.multiply(matrix_a, right)
        return EngineRun(matrix=result.matrix, report=self._report(result))

    def _report(self, result: BaselineResult) -> CostReport:
        """The cost report of one run.

        The headline ``energy_joules`` keeps the platform model's number
        (runtime × dynamic power — the Figure 12 methodology); ``energy``
        additionally carries the uniform per-event accounting so baseline
        points get the same Table III-style view as SpArch (DESIGN.md).
        ``detail`` records the run's scalar outcome, result matrix aside.
        """
        from repro.analysis.energy import EnergyModel

        detail = {
            "baseline": self.display_name,
            "platform": result.platform,
            "engine": self.backend,
            "runtime_seconds": result.runtime_seconds,
            "traffic_bytes": result.traffic_bytes,
            "multiplications": result.multiplications,
            "additions": result.additions,
            "bookkeeping_ops": result.bookkeeping_ops,
            "energy_joules": result.energy_joules,
            "result_nnz": result.nnz,
            "extras": dict(result.extras),
        }
        return CostReport(
            engine=self.name,
            kind="baseline",
            backend=self.backend,
            runtime_seconds=result.runtime_seconds,
            multiplications=result.multiplications,
            additions=result.additions,
            bookkeeping_ops=result.bookkeeping_ops,
            output_nnz=result.nnz,
            traffic={"total": int(result.traffic_bytes)},
            energy=EnergyModel().event_energy(
                multiplications=result.multiplications,
                additions=result.additions,
                bookkeeping_ops=result.bookkeeping_ops,
                dram_bytes=result.traffic_bytes,
            ),
            energy_joules=result.energy_joules,
            extras=dict(result.extras),
            detail=detail,
        )
