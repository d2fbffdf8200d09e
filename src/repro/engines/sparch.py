"""The SpArch simulator as a registry engine."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.accelerator import Dataflow, SpArch
from repro.core.config import SpArchConfig
from repro.core.stats import SimulationStats
from repro.engines.base import Engine, EngineRun
from repro.formats.csr import CSRMatrix
from repro.metrics.report import CostReport


@dataclass
class SpArchRun(EngineRun):
    """An :class:`EngineRun` that keeps the dataflow it priced.

    Attributes:
        dataflow: what the multiply computed before pricing; any SpArch
            engine whose configuration has the same
            :meth:`~repro.core.config.SpArchConfig.dataflow_key` can
            :meth:`~SpArchEngine.price` it.
    """

    dataflow: Dataflow


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
            ) -> SpArchRun:
        right = matrix_a if matrix_b is None else matrix_b
        result = SpArch(self._config).multiply(matrix_a, right)
        return SpArchRun(matrix=result.matrix,
                         report=self._report(result.stats),
                         dataflow=result.dataflow)

    def price(self, dataflow: Dataflow) -> EngineRun:
        """Price a dataflow that ran under a configuration sharing its key.

        No element is multiplied or merged: see
        :meth:`~repro.core.accelerator.SpArch.price`.  The run's matrix
        is the dataflow's result object itself.
        """
        stats = SpArch(self._config).price(dataflow)
        return EngineRun(matrix=dataflow.matrix, report=self._report(stats))

    def _report(self, stats: SimulationStats) -> CostReport:
        return CostReport.from_stats(stats, config=self._config,
                                     engine=self.name,
                                     energy_model=self._energy_model)


def run_shared(engines: list[SpArchEngine], matrix_a: CSRMatrix,
               matrix_b: CSRMatrix | None = None) -> list[EngineRun]:
    """Run ``A · B`` once and price it under every engine's configuration.

    The engines' configurations must share one
    :meth:`~repro.core.config.SpArchConfig.dataflow_key` on the batched
    engine.  The first engine runs in full through :meth:`SpArchEngine.run`;
    every other is priced over that run's dataflow.  All the returned runs
    share one result matrix object.  A one-engine list is just that
    engine's ``run``, so the experiment runner passes any engine, baselines
    included, as a group of one.
    """
    first = engines[0].run(matrix_a, matrix_b)
    return [first, *(engine.price(first.dataflow) for engine in engines[1:])]
