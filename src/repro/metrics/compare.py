"""Comparison and diff helpers over :class:`~repro.metrics.report.CostReport`.

The differential harnesses (pre/post refactor identity, scalar vs
vectorized cross-checks, cached vs fresh replays) all reduce to the same
question: *do two cost reports describe the same execution?*  These helpers
answer it field by field, with an optional relative tolerance for the
floating-point fields, and render a human-readable discrepancy list when
they do not.
"""

from __future__ import annotations

import math

from repro.metrics.report import CostReport

#: Fields compared exactly (integers and identity strings).
EXACT_FIELDS = ("kind", "cycles", "multiplications", "additions",
                "bookkeeping_ops", "comparator_ops", "output_nnz")

#: Fields compared within the relative tolerance.
FLOAT_FIELDS = ("runtime_seconds", "energy_joules")


def _close(a: float, b: float, rel_tol: float) -> bool:
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0)


def report_diff(left: CostReport, right: CostReport, *,
                rel_tol: float = 0.0,
                compare_identity: bool = False) -> dict[str, tuple]:
    """Field-by-field differences between two reports.

    Args:
        left: first report.
        right: second report.
        rel_tol: relative tolerance applied to the float fields, the
            traffic byte counts and the per-module energy (0 = exact).
        compare_identity: also compare the ``engine`` / ``backend`` labels
            (off by default — the usual question is whether two *paths*
            produced the same numbers, not whether the labels match).

    Returns:
        ``{field: (left_value, right_value)}`` for every differing field;
        empty when the reports agree.
    """
    diffs: dict[str, tuple] = {}
    identity = ("engine", "backend") if compare_identity else ()
    for name in identity + EXACT_FIELDS:
        if getattr(left, name) != getattr(right, name):
            diffs[name] = (getattr(left, name), getattr(right, name))
    for name in FLOAT_FIELDS:
        if not _close(getattr(left, name), getattr(right, name), rel_tol):
            diffs[name] = (getattr(left, name), getattr(right, name))
    for category in sorted(set(left.traffic) | set(right.traffic)):
        ours, theirs = left.traffic.get(category, 0), right.traffic.get(category, 0)
        if not _close(ours, theirs, rel_tol):
            diffs[f"traffic[{category}]"] = (ours, theirs)
    for module in sorted(set(left.energy) | set(right.energy)):
        ours, theirs = left.energy.get(module, 0.0), right.energy.get(module, 0.0)
        if not _close(ours, theirs, rel_tol):
            diffs[f"energy[{module}]"] = (ours, theirs)
    for key in sorted(set(left.extras) | set(right.extras)):
        ours, theirs = left.extras.get(key), right.extras.get(key)
        if ours != theirs and not (
                isinstance(ours, float) and isinstance(theirs, float)
                and _close(ours, theirs, rel_tol)):
            diffs[f"extras[{key}]"] = (ours, theirs)
    return diffs


def format_diff(diffs: dict[str, tuple]) -> str:
    """Render a :func:`report_diff` result as one line per discrepancy."""
    if not diffs:
        return "reports agree"
    lines = [f"  {field}: {ours!r} != {theirs!r}"
             for field, (ours, theirs) in sorted(diffs.items())]
    return "\n".join([f"{len(diffs)} field(s) differ:"] + lines)


def assert_reports_equal(left: CostReport, right: CostReport, *,
                         rel_tol: float = 0.0) -> None:
    """Raise ``AssertionError`` with the rendered diff when reports differ."""
    diffs = report_diff(left, right, rel_tol=rel_tol)
    assert not diffs, format_diff(diffs)
