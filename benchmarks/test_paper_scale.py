"""Paper-scale smoke benchmark: the 10⁵-row suite rungs, unscaled buffers.

The benchmark suite normally runs on ``BENCH_MAX_ROWS = 600`` proxies with
proxy-scaled buffers.  This module is the exception: it executes each
*paper-scale rung* of ``PAPER_SCALE_NAMES`` capped at 10⁵ rows on the
batched engine with the **unscaled Table I configuration**, exactly the
regime DESIGN.md's proxy-scaling argument used to exclude.  The two rungs
reach different prefetcher paths: patents_main's rows span several buffer
lines, so its replay runs the event loop, while every m133-b3 row fits one
line and its replay settles in closed form.  Tracked quantities, per rung:

* ``rows_per_second`` — result rows divided by best-of wall-clock; the
  headline throughput number for the paper-scale trajectory (methodology in
  README.md § Paper scale).
* ``traced_peak_mib`` — the ``tracemalloc`` peak of one extra, untimed
  multiply of this rung alone, with no idle band workspace to borrow, so
  the workspace the multiply grows is counted: the memory the batched
  engine's per-band working set claim is about.  Traced bytes repeat
  exactly from run to run, so it is gated hard, at
  :data:`TRACED_PEAK_MIB` plus :data:`TRACED_PEAK_MARGIN`.
* ``peak_rss_mib`` — the process high-water mark after the run.  It
  includes every test that ran before it in the same process, so it is
  recorded for context and not gated.

The rows/second threshold is deliberately loose (~15× below the measured
laptop number): it exists to catch complexity regressions (an accidentally
quadratic path turns minutes into hours at this scale), not to benchmark
the host.  ``REPRO_BENCH_SOFT=1`` demotes a rows/second miss to a warning
on shared CI runners; it does not soften the memory gate.
"""

from __future__ import annotations

import resource
import time
import tracemalloc

import pytest

import repro.core.vectorized as vectorized
from bench_results import enforce_threshold, record_result
from repro.core.accelerator import SpArch
from repro.experiments.common import (
    PAPER_SCALE_MAX_ROWS,
    PAPER_SCALE_NAMES,
    load_paper_scale_suite,
)

REPEATS = 3

#: Rows/second floor — ~15× below the measured reference-host number, so
#: only a complexity regression (not host speed) can trip it.
MIN_ROWS_PER_SECOND = 2_000.0

#: Measured traced peak (MiB) of one multiply per rung, numpy 2.4 on
#: CPython 3.11.  Generating and writing whole merge rounds at once peaked
#: at 421.9 (patents_main) and 90.5 (m133-b3).
TRACED_PEAK_MIB = {"patents_main": 188.6, "m133-b3": 57.9}

#: Allowance over :data:`TRACED_PEAK_MIB` for other numpy and Python
#: versions, whose kernels may allocate different temporaries.
TRACED_PEAK_MARGIN = 0.15


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _traced_peak_mib(fn) -> float:
    """The ``tracemalloc`` peak of one call, in MiB, from a fresh trace."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("rung_name", PAPER_SCALE_NAMES)
def test_paper_scale_rung_streaming_throughput(rung_name, monkeypatch):
    """One rung @ 10⁵ rows, batched engine, unscaled Table I."""
    suite = load_paper_scale_suite(max_rows=PAPER_SCALE_MAX_ROWS,
                                   names=[rung_name])
    matrix, config = suite[rung_name]
    assert config.engine == "vectorized"
    assert config.prefetch_buffer_lines == 1024  # unscaled Table I
    assert config.lookahead_fifo_elements == 8192

    accelerator = SpArch(config)
    # One warm-up run doubles as the correctness probe for the recorded
    # output statistics.
    result = accelerator.multiply(matrix, matrix)
    assert result.matrix.nnz > 0
    best = _best_of(REPEATS, lambda: accelerator.multiply(matrix, matrix))
    rows_per_second = matrix.shape[0] / best
    peak_rss_mib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    / 1024.0)
    # The timed multiplies left a grown workspace idle; without it the
    # traced multiply grows its own, as a cold process does.
    monkeypatch.setattr(vectorized, "_IDLE_WORKSPACES", [])
    traced_peak_mib = _traced_peak_mib(
        lambda: accelerator.multiply(matrix, matrix))

    record_result(f"paper_scale[{rung_name}@{PAPER_SCALE_MAX_ROWS}]",
                  seconds=best,
                  rows_per_second=rows_per_second,
                  rows=matrix.shape[0],
                  nnz=matrix.nnz,
                  output_nnz=result.matrix.nnz,
                  merge_rounds=result.stats.num_merge_rounds,
                  peak_rss_mib=peak_rss_mib,
                  traced_peak_mib=traced_peak_mib,
                  threshold=MIN_ROWS_PER_SECOND)
    ceiling = TRACED_PEAK_MIB[rung_name] * (1 + TRACED_PEAK_MARGIN)
    assert traced_peak_mib <= ceiling, (
        f"paper-scale rung {rung_name} traced {traced_peak_mib:.1f} MiB "
        f"at its peak (ceiling {ceiling:.1f} MiB)")
    if rows_per_second < MIN_ROWS_PER_SECOND:
        enforce_threshold(
            f"paper-scale rung {rung_name} ran at "
            f"{rows_per_second:,.0f} rows/s "
            f"(< {MIN_ROWS_PER_SECOND:,.0f}; {best:.2f}s for "
            f"{matrix.shape[0]:,} rows)"
        )
