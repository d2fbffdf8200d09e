"""Annotation and loop-stop probes for compiled workload graphs.

Compiled graph specs compute workload-level scalars (triangle counts,
walk totals, convergence measures) by naming *probes*, so the spec stays
declarative:

* **annotation probes** — pure functions from one ``scipy.sparse`` CSR
  value (plus scalar keyword parameters) to one float, recorded via
  :class:`~repro.workloads.compiler.ir.AnnotateIR`;
* **stop probes** — functions of ``(current, previous)`` carried loop
  values whose reading is compared against a tolerance
  (``probe(current, previous) < tolerance`` ends the loop) via
  :class:`~repro.workloads.compiler.ir.StopIR`.

Both registries mirror :data:`repro.workloads.ops.HOST_OPS`: extensible by
name, with lookup errors that list what is registered.  The annotations
of the five original workloads are pinned by the golden payloads in
``tests/workloads/test_compiler_parity.py``.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import scipy.sparse as sp

from repro.workloads.ops import triangles_from_masked

#: An annotation probe: ``fn(value, **params) -> float``.
Probe = Callable[..., float]

#: A loop-stop probe: ``fn(current, previous) -> float``.
StopProbe = Callable[[sp.csr_matrix, sp.csr_matrix], float]

#: Registered annotation probes by name.
PROBES: dict[str, Probe] = {}

#: Registered loop-stop probes by name.
STOP_PROBES: dict[str, StopProbe] = {}


def register_probe(name: str) -> Callable[[Probe], Probe]:
    """Decorator registering an annotation probe under ``name``."""
    def decorator(fn: Probe) -> Probe:
        if name in PROBES:
            raise ValueError(f"probe {name!r} is already registered")
        PROBES[name] = fn
        return fn
    return decorator


def register_stop_probe(name: str) -> Callable[[StopProbe], StopProbe]:
    """Decorator registering a loop-stop probe under ``name``."""
    def decorator(fn: StopProbe) -> StopProbe:
        if name in STOP_PROBES:
            raise ValueError(f"stop probe {name!r} is already registered")
        STOP_PROBES[name] = fn
        return fn
    return decorator


def get_probe(name: str, *, stage: str | None = None) -> Probe:
    """Look up one annotation probe; unknown names list the registry."""
    try:
        return PROBES[name]
    except KeyError:
        context = f"stage {stage!r}: " if stage else ""
        raise KeyError(
            f"{context}unknown probe {name!r}; known probes: "
            f"{', '.join(sorted(PROBES))}"
        ) from None


def get_stop_probe(name: str, *, stage: str | None = None) -> StopProbe:
    """Look up one loop-stop probe; unknown names list the registry."""
    try:
        return STOP_PROBES[name]
    except KeyError:
        context = f"stage {stage!r}: " if stage else ""
        raise KeyError(
            f"{context}unknown stop probe {name!r}; known stop probes: "
            f"{', '.join(sorted(STOP_PROBES))}"
        ) from None


# ----------------------------------------------------------------------
# Annotation probes
# ----------------------------------------------------------------------
@register_probe("rows")
def rows(value: sp.csr_matrix) -> float:
    """Number of rows."""
    return float(value.shape[0])


@register_probe("cols")
def cols(value: sp.csr_matrix) -> float:
    """Number of columns."""
    return float(value.shape[1])


@register_probe("nnz")
def nnz(value: sp.csr_matrix) -> float:
    """Stored nonzeros."""
    return float(value.nnz)


@register_probe("matrix_sum")
def matrix_sum(value: sp.csr_matrix) -> float:
    """Sum over every stored entry."""
    return float(value.sum())


@register_probe("max_value")
def max_value(value: sp.csr_matrix) -> float:
    """Largest stored entry (0 for an empty matrix)."""
    return float(value.data.max()) if value.nnz else 0.0


@register_probe("triangles_total")
def triangles_total(value: sp.csr_matrix) -> float:
    """Exact global triangle count of a masked square ``(A·A) ⊙ A``."""
    return float(triangles_from_masked(value)[1])


@register_probe("wedges")
def wedges(value: sp.csr_matrix) -> float:
    """Wedge (open-triple) count of a binary adjacency."""
    degrees = np.asarray(value.sum(axis=1)).ravel()
    return float(int((degrees * (degrees - 1) / 2).sum()))


@register_probe("off_diagonal_pairs")
def off_diagonal_pairs(value: sp.csr_matrix) -> float:
    """Unordered off-diagonal pairs of a symmetric join result."""
    off_diagonal = value.nnz - int((value.diagonal() != 0).sum())
    return float(off_diagonal // 2)


# ----------------------------------------------------------------------
# Loop-stop probes
# ----------------------------------------------------------------------
@register_stop_probe("chaos")
def chaos_stop(current: sp.csr_matrix, previous: sp.csr_matrix) -> float:
    """MCL chaos measure of the carried value (ignores ``previous``)."""
    from repro.workloads.ops import chaos

    return chaos(current)


@register_stop_probe("delta_max")
def delta_max(current: sp.csr_matrix, previous: sp.csr_matrix) -> float:
    """Largest absolute entry of ``current − previous`` (power iteration)."""
    delta = (current - previous).tocsr()
    return float(np.abs(delta.data).max()) if delta.nnz else 0.0


@register_stop_probe("rows_below")
def rows_below(current: sp.csr_matrix, previous: sp.csr_matrix) -> float:
    """Row count of the carried value (AMG: stop once coarse enough)."""
    return float(current.shape[0])
