"""Shared plumbing for the experiment harnesses.

Besides workload loading and the :class:`ExperimentResult` container, this
module exposes :func:`baseline_ratio_table`, the SpArch-vs-baselines loop
of Figures 11 and 12.  Every harness routes its points through
:class:`repro.experiments.runner.ExperimentRunner`; that shared funnel is
what lets one ``python -m repro.experiments all`` sweep reuse each (matrix,
config) simulation across figures instead of recomputing it per experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SpArchConfig
from repro.corpus.registry import PAPER_SCALE_MAX_ROWS, PAPER_SCALE_NAMES
from repro.engines.base import Engine
from repro.engines.sparch import SpArchEngine
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.formats.csr import CSRMatrix
from repro.metrics.report import SCHEMA_VERSION, CostReport
from repro.matrices.suite import (
    DEFAULT_MAX_ROWS,
    benchmark_names,
    get_benchmark_spec,
    load_benchmark,
    load_suite,
)
from repro.utils.maths import geometric_mean
from repro.utils.reporting import Table

#: Floors applied when scaling the on-chip buffers down with the proxies, so
#: degenerate configurations (a one-line buffer) never appear.
MIN_PREFETCH_LINES = 32
MIN_LOOKAHEAD_ELEMENTS = 256


@dataclass
class ExperimentResult:
    """Outcome of one experiment harness.

    Attributes:
        experiment_id: registry key ("fig11", "table2", ...).
        title: human-readable title, matching the paper artefact.
        table: the rendered rows/series the paper reports.
        metrics: flat ``{name: value}`` dict of headline numbers, used by the
            tests and by EXPERIMENTS.md.
        paper_values: the corresponding numbers reported in the paper, for
            side-by-side comparison.
        notes: free-form remarks (scaling caveats, substitutions).
        reports: named canonical cost reports behind the table — one per
            measured point (or aggregate), keyed however the harness labels
            them.  Serialised verbatim into the ``--json`` payload, so any
            experiment's raw cost model is machine-readable in one schema.
    """

    experiment_id: str
    title: str
    table: Table
    metrics: dict[str, float] = field(default_factory=dict)
    paper_values: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    reports: dict[str, CostReport] = field(default_factory=dict)

    def to_payload(self) -> dict:
        """JSON-serialisable payload of the whole result (one schema for
        every registered experiment — this is what ``--json`` writes)."""
        payload = {
            "schema_version": SCHEMA_VERSION,
            "experiment_id": self.experiment_id,
            "title": self.title,
            "metrics": self.metrics,
            "paper_values": self.paper_values,
            "notes": self.notes,
            "table": {"title": self.table.title,
                      "columns": self.table.columns,
                      "rows": self.table.rows},
        }
        if self.reports:
            payload["reports"] = {name: report.to_dict()
                                  for name, report in self.reports.items()}
        return payload

    def render(self) -> str:
        """Render the experiment output as plain text."""
        lines = [self.table.render()]
        if self.metrics:
            lines.append("")
            lines.append("Headline metrics (measured vs paper):")
            for key, value in self.metrics.items():
                paper = self.paper_values.get(key)
                if paper is None:
                    lines.append(f"  {key}: {value:.4g}")
                else:
                    lines.append(f"  {key}: {value:.4g}  (paper: {paper:.4g})")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def display_names(engines: list[Engine]) -> list[str]:
    """Each engine's ``display_name``, refusing any two that share one.

    Comparison harnesses label columns, geomeans and reports by display
    name, so two parameterisations of one system (two ``GustavsonSpGEMM``
    on different platforms, say) would otherwise collapse into one column.

    Raises:
        ValueError: naming every display name two engines share.
    """
    labels = [engine.display_name for engine in engines]
    shared = sorted({label for label in labels if labels.count(label) > 1})
    if shared:
        raise ValueError(
            "compared engines need distinct display names; shared: "
            + ", ".join(shared))
    return labels


def baseline_ratio_table(title: str,
                         workload: dict[str, tuple[CSRMatrix, SpArchConfig | None]],
                         baselines: list[Engine], *, metric: str, floor: float,
                         runner: ExperimentRunner | None = None
                         ) -> tuple[Table, dict[str, float],
                                    dict[str, CostReport]]:
    """The per-matrix SpArch-vs-baselines ratios of Figures 11 and 12.

    Every workload point runs once on SpArch and once per baseline, all
    through the runner's memo.  Each cell is the baseline report's
    ``metric`` over SpArch's, SpArch's value floored at ``floor``; the last
    row holds each column's geometric mean.

    Args:
        title: the table title.
        workload: ``{name: (matrix, config)}`` points (``config=None``
            means Table I).
        baselines: the comparison engines, labelled by their distinct
            ``display_name`` (see :func:`display_names`).
        metric: the compared :class:`CostReport` field
            (``"runtime_seconds"``, ``"energy_joules"``).
        floor: lower bound of SpArch's value in each ratio.
        runner: experiment runner providing memoised/batched execution.

    Returns:
        ``(table, geomeans, reports)``: the geomeans keyed by display
        name; the reports keyed ``"SpArch[<matrix>]"`` and
        ``"<display name>[<matrix>]"``.
    """
    labels = display_names(baselines)
    runner = runner or default_runner()
    sparch_reports = runner.run_engine_many(
        [(SpArchEngine(config or SpArchConfig()), matrix)
         for matrix, config in workload.values()])
    baseline_reports = iter(runner.run_engine_many(
        [(baseline, matrix) for matrix, _ in workload.values()
         for baseline in baselines]))

    table = Table(title=title,
                  columns=["matrix"] + [f"over {label}" for label in labels])
    reports = {f"SpArch[{name}]": report
               for name, report in zip(workload, sparch_reports)}
    ratios: dict[str, list[float]] = {label: [] for label in labels}
    for name, sparch in zip(workload, sparch_reports):
        denominator = max(getattr(sparch, metric), floor)
        row: list[object] = [name]
        for label in labels:
            report = next(baseline_reports)
            reports[f"{label}[{name}]"] = report
            ratio = getattr(report, metric) / denominator
            ratios[label].append(ratio)
            row.append(ratio)
        table.add_row(*row)
    geomeans = {label: geometric_mean(values)
                for label, values in ratios.items()}
    table.add_row("Geo Mean", *geomeans.values())
    return table, geomeans, reports


def small_suite(*, max_rows: int = 600, count: int = 5) -> dict[str, CSRMatrix]:
    """A few-matrix subset for quick runs (tests, pytest-benchmark)."""
    names = benchmark_names()[:count]
    return load_suite(max_rows=max_rows, names=names)


def _scaled_capacity(base: int, scale: float, floor: int) -> int:
    """One buffer capacity scaled down, floored, and clamped to its base.

    The clamp to ``base`` fixes a latent bug of the unclamped version: with
    a base capacity *below* the floor (ablation configurations use 8-line
    buffers), the floor used to silently *enlarge* the buffer.  The final
    ``max(1, ...)`` guarantees a structurally valid (≥ 1 entry) capacity
    for any base, so a scaled configuration can never fail
    :class:`~repro.core.config.SpArchConfig` validation with a
    zero-capacity buffer.
    """
    return max(1, min(base, max(floor, int(round(base * scale)))))


def scale_buffer_capacities(config: SpArchConfig, scale: float) -> SpArchConfig:
    """Scale a configuration's prefetch/look-ahead capacities by ``scale``.

    Args:
        config: configuration to scale.
        scale: proxy shrink factor; must satisfy ``0 < scale <= 1``.  A
            factor above 1 would *grow* the buffers past Table I — always a
            caller bug (paper-scale runs must use the unscaled
            configuration instead), so it raises rather than clamping
            silently.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError(
            f"buffer scale factor must be in (0, 1], got {scale!r}; "
            "paper-scale runs use the unscaled configuration"
        )
    lines = _scaled_capacity(config.prefetch_buffer_lines, scale,
                             MIN_PREFETCH_LINES)
    lookahead = _scaled_capacity(config.lookahead_fifo_elements, scale,
                                 MIN_LOOKAHEAD_ELEMENTS)
    return config.replace(prefetch_buffer_lines=lines,
                          lookahead_fifo_elements=lookahead)


def scaled_config(name: str, *, max_rows: int = DEFAULT_MAX_ROWS,
                  base_config: SpArchConfig | None = None) -> SpArchConfig:
    """Scale the on-chip buffers down with the benchmark proxy.

    The paper's Table I buffers (1024-line prefetch buffer, 8192-element
    look-ahead FIFO) are sized against matrices with 10⁵–10⁶ rows.  A proxy
    capped at a few thousand rows fits entirely in those buffers, which
    would overstate the prefetcher's hit rate (the paper measures 62 %).
    Scaling the buffer capacities by the same factor as the matrix keeps
    the capacity-to-working-set ratio — the quantity the replacement policy
    actually sees — at the paper's operating point.  At or beyond the
    benchmark's original dimension no scaling applies (``scale == 1``) —
    that is the paper-scale regime, see :func:`paper_scale_config`.
    DESIGN.md §2 and EXPERIMENTS.md document this.

    Args:
        name: benchmark name (used to look up the original dimension).
        max_rows: proxy dimension cap used when generating the matrix.
        base_config: configuration to scale (Table I by default).
    """
    base_config = base_config or SpArchConfig()
    spec = get_benchmark_spec(name)
    scale = min(1.0, max_rows / spec.num_rows)
    return scale_buffer_capacities(base_config, scale)


def paper_scale_config(base_config: SpArchConfig | None = None) -> SpArchConfig:
    """The configuration paper-scale (10⁵+-row) scenarios run under.

    Unscaled Table I buffers — at this dimension the capacity-to-working-set
    ratio *is* the paper's operating point, so no proxy compensation applies
    — on the batched backend, whose working set is bounded per row band of
    a merge round rather than per matrix.
    """
    base_config = base_config or SpArchConfig()
    return base_config.replace(engine="vectorized")


def load_scaled_suite(*, max_rows: int = DEFAULT_MAX_ROWS,
                      names: list[str] | None = None,
                      base_config: SpArchConfig | None = None
                      ) -> dict[str, tuple[CSRMatrix, SpArchConfig]]:
    """Load benchmark proxies together with their proxy-scaled configurations.

    Returns:
        ``{name: (matrix, config)}`` where ``config`` is
        :func:`scaled_config` of that benchmark.
    """
    selected = names if names is not None else benchmark_names()
    return {
        name: (load_benchmark(name, max_rows=max_rows),
               scaled_config(name, max_rows=max_rows, base_config=base_config))
        for name in selected
    }


def load_paper_scale_suite(*, max_rows: int = PAPER_SCALE_MAX_ROWS,
                           names: list[str] | None = None,
                           base_config: SpArchConfig | None = None
                           ) -> dict[str, tuple[CSRMatrix, SpArchConfig]]:
    """Load paper-scale proxies with the *unscaled* Table I configuration.

    The counterpart of :func:`load_scaled_suite` for the 10⁵+-row regime:
    every matrix is paired with :func:`paper_scale_config` (unscaled
    buffers, batched backend).

    Returns:
        ``{name: (matrix, config)}``.
    """
    config = paper_scale_config(base_config)
    selected = list(names) if names is not None else list(PAPER_SCALE_NAMES)
    return {name: (load_benchmark(name, max_rows=max_rows), config)
            for name in selected}
