"""The :class:`Engine` protocol: one interface over every SpGEMM executor.

An *engine* computes ``A · B`` exactly and prices the execution in the
canonical :class:`~repro.metrics.report.CostReport` schema.  The SpArch
simulator and all seven comparison baselines implement it, which is what
lets the experiment runner, the workload pipelines and the sweeps dispatch
any of them *by registry name* instead of branching per result type.

Engines are lightweight, picklable descriptions (a configuration, a
platform model) — safe to ship to worker processes — and the heavyweight
simulator state is constructed per :meth:`run` call.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

# BACKENDS names the execution backends every engine understands, proven
# identical by the differential harnesses: a scalar reference loop and a
# batched fast path.
from repro.core.config import BACKENDS  # noqa: F401  (re-exported)
from repro.formats.csr import CSRMatrix
from repro.metrics.report import CostReport


@dataclass
class EngineRun:
    """Outcome of one engine execution.

    Attributes:
        matrix: the exact functional result (every engine is exact).
        report: the execution's canonical cost report.
    """

    matrix: CSRMatrix
    report: CostReport


class Engine(abc.ABC):
    """One SpGEMM executor behind the registry.

    Engines are immutable values: nothing :meth:`cache_fields` reads may
    change after construction.  The SpArch configuration, the energy model
    and its constants, and the baselines' platform models are frozen
    dataclasses, and :meth:`using_backend` returns a new engine rather
    than re-pinning this one.  The experiment runner relies on this: it
    derives an engine's identity fingerprint once per instance and reuses
    it for every later cache key.

    Attributes:
        name: registry id, lowercase ("sparch", "mkl", "outerspace", ...).
        display_name: label used in comparison tables ("SpArch", "MKL").
        kind: ``"simulation"`` (cycle-accurate; the kind that takes a
            configuration) or ``"baseline"`` (platform performance model).
            Registry entries do not repeat it: read it from the class.
    """

    name: str = "engine"
    display_name: str = "Engine"
    kind: str = "baseline"

    @abc.abstractmethod
    def run(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix | None = None
            ) -> EngineRun:
        """Execute ``A · B`` (``B = A`` by default) and price it."""

    @abc.abstractmethod
    def cache_fields(self) -> dict:
        """Identity of this engine for experiment-cache fingerprinting."""

    @abc.abstractmethod
    def using_backend(self, backend: str) -> "Engine":
        """Return this engine pinned to the given execution backend."""

    @property
    @abc.abstractmethod
    def backend(self) -> str:
        """The execution backend this engine runs on."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
