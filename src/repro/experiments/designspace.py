"""Reusable design-space sweep helper: keyed grids of engine points.

Figure 17 (and any future DSE experiment) evaluates a grid of architectural
configurations over a set of matrices.  The original harness flattened the
grid into one ``simulate_many`` list and sliced the results back out by
index arithmetic — correct only as long as every config ran every matrix in
exactly the constructed order.  :func:`sweep_grid` replaces that with keyed
results: every ``(config label, matrix name)`` cell of the grid maps to its
own :class:`~repro.metrics.report.CostReport`, while the batched runner
underneath still deduplicates and fans out exactly as before.

The aggregation helpers (:func:`geomean_gflops`, :func:`total_dram_bytes`,
:func:`summarise_grid`) compute the per-config numbers Figure 17 plots, and
are the building blocks future DSE harnesses should reach for instead of
re-deriving them.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.config import SpArchConfig
from repro.engines.sparch import SpArchEngine
from repro.experiments.runner import ExperimentRunner, default_runner
from repro.formats.csr import CSRMatrix
from repro.metrics.report import CostReport
from repro.utils.maths import geometric_mean

#: Sweep points of the four Figure 17 design-space axes, matching the
#: paper's x-axes.  They live here (not in the fig17 harness) because the
#: same grid is re-expressed as the registered ``fig17-dse`` corpus sweep.
LINE_SIZE_SWEEP = (24, 36, 48, 60, 72, 84, 96)
BUFFER_SHAPE_SWEEP = ((2048, 24), (1024, 48), (512, 96), (256, 192))
COMPARATOR_SWEEP = (1, 2, 4, 8, 16)
LOOKAHEAD_SWEEP = (1024, 2048, 4096, 8192, 16384)

#: Floor applied to each point's GFLOP/s before a geometric mean, so a
#: zero-throughput point keeps the mean defined (the log of 0 is not).
#: Every GFLOP/s geomean in the repository applies this one value; the
#: sweep index's stored logs and the streamed store summary agree with
#: :func:`geomean_gflops` because they share it.
GEOMEAN_FLOOR = 1e-12


def fig17_grid(base_config: SpArchConfig | None = None, *,
               buffer_scale: int = 16
               ) -> dict[str, dict[str, SpArchConfig]]:
    """The Figure 17 design-space grid as labelled config families.

    Args:
        base_config: configuration the sweeps perturb (Table I by default).
        buffer_scale: prefetch-buffer and look-ahead capacities are divided
            by this factor so scaled-down proxies exercise the same
            capacity-pressure regime as the paper's full-size matrices.

    Returns:
        ``{family: {label: config}}`` with the four families ``"line"``
        (prefetch line size), ``"shape"`` (buffer shape at fixed capacity),
        ``"comparator"`` (merger array size) and ``"lookahead"`` (FIFO
        size) — consumed label-keyed by the fig17 harness and flattened
        into the ``fig17-dse`` sweep's config axis.
    """
    base_config = base_config or SpArchConfig()
    scaled_lines = max(4, base_config.prefetch_buffer_lines // buffer_scale)
    grid: dict[str, dict[str, SpArchConfig]] = {}
    grid["line"] = {
        f"{scaled_lines}x{line}": base_config.replace(
            prefetch_buffer_lines=scaled_lines,
            prefetch_line_elements=line)
        for line in LINE_SIZE_SWEEP
    }
    grid["shape"] = {
        f"{lines}x{elements}": base_config.replace(
            prefetch_buffer_lines=max(2, lines // buffer_scale),
            prefetch_line_elements=elements)
        for lines, elements in BUFFER_SHAPE_SWEEP
    }
    grid["comparator"] = {
        f"{size}x{size}": base_config.replace(
            merger_width=size, merger_chunk_size=min(4, size))
        for size in COMPARATOR_SWEEP
    }
    grid["lookahead"] = {
        str(size): base_config.replace(
            lookahead_fifo_elements=max(16, size // buffer_scale),
            prefetch_buffer_lines=scaled_lines)
        for size in LOOKAHEAD_SWEEP
    }
    return grid


def flatten_grid(grid: dict[str, dict[str, SpArchConfig]]
                 ) -> tuple[tuple[str, SpArchConfig], ...]:
    """Flatten a ``{family: {label: config}}`` grid into labelled configs.

    Labels become ``"family:label"`` — the form a
    :class:`~repro.sweeps.spec.SweepSpec` declares its config axis in
    (family prefixes keep labels unique across families).
    """
    return tuple((f"{family}:{label}", config)
                 for family, configs in grid.items()
                 for label, config in configs.items())


def sweep_grid(configs: dict[str, SpArchConfig],
               matrices: dict[str, CSRMatrix], *,
               runner: ExperimentRunner | None = None
               ) -> dict[str, dict[str, CostReport]]:
    """Simulate every config over every matrix, keyed per cell.

    Args:
        configs: ``{label: config}`` sweep points.
        matrices: ``{name: matrix}`` workload (each squared, as in the
            paper's evaluation).
        runner: experiment runner providing memoised/batched simulation.

    Returns:
        ``{config label: {matrix name: CostReport}}`` — every cell
        addressable by its keys, no positional arithmetic.  Duplicate
        points (configs that collapse to the same effective design, shared
        matrices) still simulate only once through the runner's fingerprint
        cache.
    """
    runner = runner or default_runner()
    cells = [(label, name) for label in configs for name in matrices]
    reports = runner.run_engine_many(
        [(SpArchEngine(configs[label]), matrices[name])
         for label, name in cells])
    grid: dict[str, dict[str, CostReport]] = {label: {} for label in configs}
    for (label, name), report in zip(cells, reports):
        grid[label][name] = report
    return grid


def geomean_gflops(reports: Iterable[CostReport]) -> float:
    """Geometric-mean achieved GFLOP/s across reports (floored at
    :data:`GEOMEAN_FLOOR`)."""
    return geometric_mean([max(report.gflops, GEOMEAN_FLOOR)
                           for report in reports])


def total_dram_bytes(reports: Iterable[CostReport]) -> int:
    """Total DRAM traffic summed across reports."""
    return sum(report.dram_bytes for report in reports)


def summarise_grid(grid: dict[str, dict[str, CostReport]]
                   ) -> dict[str, tuple[float, float]]:
    """Per-config ``(geomean GFLOP/s, total DRAM bytes)`` of a sweep grid.

    The two numbers Figure 17 plots per sweep point, in the grid's label
    order.
    """
    return {
        label: (geomean_gflops(cells.values()),
                float(total_dram_bytes(cells.values())))
        for label, cells in grid.items()
    }
