"""The SpArch simulator as a registry engine."""

from __future__ import annotations

from repro.core.accelerator import SpArch
from repro.core.config import SpArchConfig
from repro.engines.base import Engine, EngineRun
from repro.formats.csr import CSRMatrix
from repro.metrics.report import CostReport


class SpArchEngine(Engine):
    """Cycle-accurate SpArch simulation behind the :class:`Engine` interface.

    The engine object holds only the configuration (picklable, cheap); a
    fresh :class:`~repro.core.accelerator.SpArch` is built per run.

    Args:
        config: architectural configuration (Table I by default).
        energy_model: per-event energy model for the report's per-module
            split (paper constants by default).
    """

    name = "sparch"
    display_name = "SpArch"
    kind = "simulation"

    def __init__(self, config: SpArchConfig | None = None, *,
                 energy_model=None) -> None:
        self._config = config or SpArchConfig()
        self._energy_model = energy_model

    # ------------------------------------------------------------------
    @property
    def config(self) -> SpArchConfig:
        """The architectural configuration simulations run under."""
        return self._config

    @property
    def backend(self) -> str:
        return self._config.engine

    def using_backend(self, backend: str) -> "SpArchEngine":
        """Return this engine pinned to one of the config's ``BACKENDS``."""
        if backend == self._config.engine:
            return self
        return SpArchEngine(self._config.replace(engine=backend),
                            energy_model=self._energy_model)

    def cache_fields(self) -> dict:
        """Cache identity: the configuration (minus the backend) and the
        energy constants.

        The backend field — the engine choice — is excluded because both
        cores are proven to produce identical statistics; the runner
        re-adds the engine for forced cross-check runs, exactly as it
        always keyed SpArch points.  The energy constants are *included*
        because the memoised report bakes the per-module energy in — two
        engines differing only in their energy model must not share a
        cache entry.
        """
        import dataclasses

        from repro.analysis.energy import EnergyModel
        from repro.core.config import BACKEND_FIELDS

        payload = dataclasses.asdict(self._config)
        for field in BACKEND_FIELDS:
            payload.pop(field, None)
        constants = (self._energy_model or EnergyModel()).constants
        return {"engine": self.name, "config": payload,
                "energy": dataclasses.asdict(constants)}

    # ------------------------------------------------------------------
    def run(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix | None = None
            ) -> EngineRun:
        right = matrix_a if matrix_b is None else matrix_b
        result = SpArch(self._config).multiply(matrix_a, right)
        report = CostReport.from_stats(result.stats, config=self._config,
                                       engine=self.name,
                                       energy_model=self._energy_model)
        return EngineRun(matrix=result.matrix, report=report)
