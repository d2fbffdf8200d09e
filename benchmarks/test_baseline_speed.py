"""Speed smoke test: vectorized baseline backends must beat the scalar loops.

The six comparison simulators of Figure 11 (plus HeapSpGEMM) each run on two
backends; the differential harness (``tests/baselines/
test_backend_equivalence.py``) proves they agree exactly, so this file only
checks time: on mid-size rMAT matrices the vectorized backends must be at
least 3× faster in aggregate.  Per-baseline ratios are recorded in
``BENCH_results.json`` so regressions in a single baseline are visible even
while the aggregate holds.

On shared CI runners the threshold is soft: set ``REPRO_BENCH_SOFT=1`` and a
shortfall is reported as a warning instead of a failure (report, don't
flake).  Local runs and the recorded numbers always use the hard threshold.
"""

from __future__ import annotations

import time

from repro.baselines import (
    ArmadilloSpGEMM,
    ESCSpGEMM,
    GustavsonSpGEMM,
    HashSpGEMM,
    HeapSpGEMM,
    OuterSpaceAccelerator,
)
from repro.matrices.rmat import RMATConfig, generate_rmat

from bench_results import enforce_threshold, record_result

#: Mid-size rMAT workloads (dimension × average degree).
WORKLOADS = ((1_500, 8), (2_500, 4))
REPEATS = 3

MIN_AGGREGATE_SPEEDUP = 3.0

BASELINES = [OuterSpaceAccelerator, GustavsonSpGEMM, HashSpGEMM, ESCSpGEMM,
             ArmadilloSpGEMM, HeapSpGEMM]


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_vectorized_baselines_at_least_3x_faster():
    """Aggregate over all baselines and workloads: vectorized ≥ 3× scalar."""
    matrices = [generate_rmat(RMATConfig(num_rows=rows, edge_factor=degree,
                                         seed=5))
                for rows, degree in WORKLOADS]
    scalar_total = 0.0
    vectorized_total = 0.0
    for baseline_cls in BASELINES:
        scalar = baseline_cls(engine="scalar")
        vectorized = baseline_cls(engine="vectorized")
        scalar_seconds = sum(
            _best_of(REPEATS, lambda m=m: scalar.run(m, m))
            for m in matrices)
        vectorized_seconds = sum(
            _best_of(REPEATS, lambda m=m: vectorized.run(m, m))
            for m in matrices)
        scalar_total += scalar_seconds
        vectorized_total += vectorized_seconds
        record_result(
            f"baseline_speed[{baseline_cls.display_name}]",
            scalar_seconds=scalar_seconds,
            vectorized_seconds=vectorized_seconds,
            speedup=scalar_seconds / vectorized_seconds,
        )

    speedup = scalar_total / vectorized_total
    record_result("baseline_speed[aggregate]",
                  scalar_seconds=scalar_total,
                  vectorized_seconds=vectorized_total,
                  speedup=speedup,
                  threshold=MIN_AGGREGATE_SPEEDUP)
    if speedup < MIN_AGGREGATE_SPEEDUP:
        enforce_threshold(
            f"vectorized baselines only {speedup:.2f}x faster in aggregate "
            f"(scalar {scalar_total:.3f}s, vectorized {vectorized_total:.3f}s; "
            f"threshold {MIN_AGGREGATE_SPEEDUP}x)"
        )
