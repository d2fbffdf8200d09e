"""Registry mapping sweep ids to frozen :class:`SweepSpec` declarations.

Mirrors the engine/workload/corpus registries: frozen entries, id lookup
with a helpful unknown-id error.  The registered sweeps re-express the
paper's evaluation grids over the corpus layer:

    smoke          tiny 2-engine sweep for CI shard jobs and tests
    fig17-dse      the Figure 17 design-space grid (via
                   repro.experiments.designspace.fig17_grid)
    engines-suite  every registered engine over the DSE benchmark subset
    rmat-sweep     SpArch vs MKL over the Figure 14-style rMAT grid
    paper-scale    SpArch (batched core) over the 10^5-row suite rung
                   with unscaled Table I buffers
"""

from __future__ import annotations

from repro.core.config import SpArchConfig
from repro.engines.registry import list_engines
from repro.experiments.common import paper_scale_config
from repro.experiments.designspace import fig17_grid, flatten_grid
from repro.sweeps.spec import SweepSpec

#: Every registered sweep, smallest first.
SWEEPS: tuple[SweepSpec, ...] = (
    SweepSpec(
        "smoke",
        "Tiny SpArch + MKL sweep over the smoke corpus (CI shard job)",
        corpus="smoke",
        engines=("sparch", "mkl"),
        configs=(("table1", SpArchConfig()),),
    ),
    SweepSpec(
        "fig17-dse",
        "Figure 17 design-space grid over the DSE benchmark subset",
        corpus="suite-small",
        engines=("sparch",),
        configs=flatten_grid(fig17_grid()),
    ),
    SweepSpec(
        "engines-suite",
        "Every registered engine over the DSE benchmark subset",
        corpus="suite-small",
        engines=tuple(list_engines()),
        configs=(("table1", SpArchConfig()),),
    ),
    SweepSpec(
        "rmat-sweep",
        "SpArch vs MKL over the Figure 14-style rMAT grid",
        corpus="rmat-grid",
        engines=("sparch", "mkl"),
        configs=(("table1", SpArchConfig()),),
    ),
    SweepSpec(
        "paper-scale",
        "SpArch batched core over the 10^5-row suite rung, unscaled "
        "Table I buffers",
        corpus="paper-scale",
        engines=("sparch",),
        # The backend choice does not enter the cell fingerprint (see
        # repro.core.config.BACKEND_FIELDS), so these cells share the memo
        # with any other unscaled-Table-I run of the same scenarios.  The
        # label is a cell identity that stored runs carry: resuming an
        # older store needs it unchanged.
        configs=(("table1-streaming", paper_scale_config()),),
    ),
)

_BY_ID = {spec.sweep_id: spec for spec in SWEEPS}


def list_sweeps() -> list[str]:
    """Return the registered sweep ids, smallest first."""
    return [spec.sweep_id for spec in SWEEPS]


def get_sweep(sweep_id: str) -> SweepSpec:
    """Look up one sweep by id; raises ``KeyError`` with suggestions."""
    try:
        return _BY_ID[sweep_id]
    except KeyError:
        raise KeyError(
            f"unknown sweep {sweep_id!r}; known sweeps: "
            f"{', '.join(list_sweeps())}"
        ) from None
