"""Baseline simulators as registry engines."""

from __future__ import annotations

from repro.baselines.base import BaselineSummary, SpGEMMBaseline
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
        # "streaming" is the SpArch core's second name for its batched
        # engine.  The baselines have no such name: their vectorized path
        # is already bounded-memory, so a streaming pin runs vectorized.
        if backend == "streaming":
            backend = "vectorized"
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
        summary = BaselineSummary.from_result(self._baseline, result)
        report = CostReport.from_baseline_summary(summary, engine=self.name)
        return EngineRun(matrix=result.matrix, report=report)
