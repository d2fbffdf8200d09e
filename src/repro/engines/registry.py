"""Registry mapping engine names to their engine classes.

Mirrors :mod:`repro.experiments.registry` and
:mod:`repro.workloads.registry`: frozen entries, id lookup with a helpful
unknown-id error, and one resolution entry point — :func:`resolve_engine` —
that the runner, the pipelines and the sweeps dispatch through.

Registered engines::

    sparch        SpArch simulator (cycle-accurate; Table I by default)
    outerspace    OuterSPACE outer-product accelerator model
    mkl           Intel MKL-class row-wise Gustavson SpGEMM (6-core CPU)
    cusparse      cuSPARSE-class hash SpGEMM (TITAN Xp)
    cusp          CUSP-class expand-sort-compress SpGEMM (TITAN Xp)
    armadillo     ARM Armadillo-class naive SpGEMM (quad A53)
    heap          heap-based row-merge SpGEMM (related work, §IV)
    innerproduct  vanilla inner-product dataflow model (Figure 1)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.armadillo import ArmadilloSpGEMM
from repro.baselines.gustavson import GustavsonSpGEMM
from repro.baselines.hash_spgemm import HashSpGEMM
from repro.baselines.heap_spgemm import HeapSpGEMM
from repro.baselines.inner_product import InnerProductSpGEMM
from repro.baselines.outerspace import OuterSpaceAccelerator
from repro.baselines.sort_spgemm import ESCSpGEMM
from repro.engines.base import Engine
from repro.engines.sparch import SpArchEngine


@dataclass(frozen=True)
class EngineEntry:
    """One registered engine.

    The registry id and the kind are the class's own: ``factory.name``
    ("sparch", "mkl", ...) and ``factory.kind``.

    Attributes:
        title: what the engine models.
        factory: the engine class itself; keyword arguments are
            forwarded (``config=`` for sparch, ``engine=`` backend and
            platform/model parameters for baselines).
    """

    title: str
    factory: type[Engine]


#: Every engine: the SpArch simulator plus the seven baselines, in the
#: order the paper introduces them.
ENGINES: tuple[EngineEntry, ...] = (
    EngineEntry("SpArch accelerator simulator (this paper)", SpArchEngine),
    EngineEntry("OuterSPACE outer-product accelerator",
                OuterSpaceAccelerator),
    EngineEntry("Intel MKL-class Gustavson SpGEMM (6-core CPU)",
                GustavsonSpGEMM),
    EngineEntry("cuSPARSE-class hash SpGEMM (TITAN Xp)", HashSpGEMM),
    EngineEntry("CUSP-class expand-sort-compress SpGEMM (TITAN Xp)",
                ESCSpGEMM),
    EngineEntry("ARM Armadillo-class naive SpGEMM (quad A53)",
                ArmadilloSpGEMM),
    EngineEntry("Heap-based row-merge SpGEMM (related work)", HeapSpGEMM),
    EngineEntry("Vanilla inner-product dataflow (Figure 1)",
                InnerProductSpGEMM),
)

_BY_NAME = {entry.factory.name: entry for entry in ENGINES}


def list_engines() -> list[str]:
    """Return the registered engine names in presentation order."""
    return [entry.factory.name for entry in ENGINES]


def get_engine_entry(name: str) -> EngineEntry:
    """Look up one engine entry; raises ``KeyError`` with suggestions."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown engine {name!r}; known engines: "
            f"{', '.join(list_engines())}"
        ) from None


def create_engine(name: str, **kwargs) -> Engine:
    """Build a fresh engine by registry name.

    Keyword arguments are forwarded to the factory: ``config=`` for the
    sparch simulator, the baseline constructor arguments (``engine=``
    backend, platform/model parameters) for the baselines.
    """
    return get_engine_entry(name).factory(**kwargs)


def resolve_engine(engine: Engine | str) -> Engine:
    """Return ``engine`` itself, or build it from a registry name."""
    if isinstance(engine, Engine):
        return engine
    return create_engine(engine)
