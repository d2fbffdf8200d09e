"""One engine interface and registry over SpArch and every baseline.

* :mod:`repro.engines.base` — the :class:`Engine` protocol (run a SpGEMM,
  return the exact result plus a canonical
  :class:`~repro.metrics.report.CostReport`).
* :mod:`repro.engines.sparch` — the cycle-accurate simulator as an engine.
* :mod:`repro.baselines` — the seven baselines, each an engine itself
  (:class:`~repro.baselines.base.BaselineEngine`).
* :mod:`repro.engines.registry` — name → engine class dispatch
  (:func:`~repro.engines.registry.create_engine`,
  :func:`~repro.engines.registry.resolve_engine`,
  :func:`~repro.engines.registry.list_engines`).

The package root exports only the protocol and the SpArch engine: the
registry imports the baselines, which import :mod:`repro.engines.base`, so
importing the registry here would make ``import repro.baselines`` circular.
"""

from repro.engines.base import BACKENDS, Engine, EngineRun
from repro.engines.sparch import SpArchEngine

__all__ = [
    "Engine",
    "EngineRun",
    "BACKENDS",
    "SpArchEngine",
]
