"""Speed smoke test: the vectorized engine must beat the scalar engine.

Two comparisons on mid-size rMAT matrices:

* **Engine kernels** (asserted ≥ 3×): the leaf streamer + merge tree — the
  code paths ``SpArchConfig.engine`` actually switches — executing the same
  Huffman merge plan.  This is the hot path the vectorized backend batches
  (partial-product gathers one merge round at a time, a blocked merge with
  one packed-word sort per block, ``reduceat`` folding) and where the
  scalar reference walks elements and node pairs in Python.
* **End-to-end multiply** (asserted ≥ 1.5×, actual ratio recorded): full
  ``SpArch.multiply``.  Besides the kernels, the engines differ in the
  Bélády prefetcher (the scalar engine runs its per-access reference loop,
  the vectorized engine its event-driven replay) and share plan
  construction and result materialisation verbatim, so the
  whole-simulation ratio stays near the kernel ratio (both about 4.5–5×
  on these sizes).

Timings use best-of-three to shrug off scheduler noise; the differential
harness (``tests/integration/test_engine_equivalence.py``) separately proves
the outputs are identical, so this file only checks time.  On shared CI
runners set ``REPRO_BENCH_SOFT=1`` to report a missed threshold as a warning
instead of a failure (the numbers still land in ``BENCH_results.json``).
"""

from __future__ import annotations

import time

import numpy as np

from bench_results import enforce_threshold, record_result
from repro.core.accelerator import SpArch, _LeafStreamer
from repro.core.config import SpArchConfig
from repro.core.huffman import huffman_schedule
from repro.core.partial_matrix import PartialMatrixStore
from repro.core.vectorized import VectorizedLeafStreamer, VectorizedMergeTree
from repro.formats.csr import CSRMatrix
from repro.hardware.merge_tree import MergeTree
from repro.matrices.rmat import RMATConfig, generate_rmat
from repro.memory.traffic import TrafficCounter

#: Mid-size rMAT workloads (dimension × average degree).
KERNEL_WORKLOADS = ((2_000, 4), (3_000, 4), (4_000, 4), (2_500, 3), (4_000, 3))
END_TO_END_WORKLOAD = (5_000, 4)
REPEATS = 5

KERNEL_MIN_SPEEDUP = 3.0
END_TO_END_MIN_SPEEDUP = 1.5


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _run_engine_kernels(matrix: CSRMatrix, engine: str) -> tuple[np.ndarray, np.ndarray]:
    """Stream every leaf and execute the full merge plan on one engine."""
    if engine == "vectorized":
        streamer = VectorizedLeafStreamer(matrix, matrix, condensing=True)
        tree = VectorizedMergeTree(num_layers=6)
    else:
        streamer = _LeafStreamer(matrix, matrix, condensing=True)
        tree = MergeTree(num_layers=6)
    plan = huffman_schedule([float(w) for w in streamer.leaf_weights()],
                            tree.num_ways)
    # As in SpArch.multiply: the batched streamer generates one merge
    # round's leaves per pass only once it knows the plan.
    streamer.bind_plan(plan)
    store = PartialMatrixStore(TrafficCounter())
    if plan.num_leaves == 1:
        return tree.merge([streamer.leaf_stream(0)])
    merged = (np.empty(0, np.int64), np.empty(0))
    for merge_round in plan.rounds:
        streams = [streamer.leaf_stream(node_id)
                   if node_id < plan.num_leaves else store.read(node_id)
                   for node_id in merge_round.input_ids]
        merged = tree.merge(streams)
        if merge_round.output_id != plan.root_id:
            store.write(merge_round.output_id, *merged)
    return merged


def test_vectorized_engine_kernels_at_least_3x_faster():
    """Streamer + merge tree: vectorized ≥ 3× scalar on mid-size rMATs."""
    scalar_total = 0.0
    vectorized_total = 0.0
    for rows, degree in KERNEL_WORKLOADS:
        matrix = generate_rmat(RMATConfig(num_rows=rows, edge_factor=degree,
                                          seed=5))
        scalar_total += _best_of(REPEATS,
                                 lambda: _run_engine_kernels(matrix, "scalar"))
        vectorized_total += _best_of(
            REPEATS, lambda: _run_engine_kernels(matrix, "vectorized"))
    speedup = scalar_total / vectorized_total
    record_result("engine_speed[kernels]",
                  scalar_seconds=scalar_total,
                  vectorized_seconds=vectorized_total,
                  speedup=speedup,
                  threshold=KERNEL_MIN_SPEEDUP)
    if speedup < KERNEL_MIN_SPEEDUP:
        enforce_threshold(
            f"vectorized merge/multiply kernels only {speedup:.2f}x faster "
            f"(scalar {scalar_total:.3f}s, vectorized {vectorized_total:.3f}s)"
        )


def test_end_to_end_multiply_speedup(benchmark):
    """Full simulation: vectorized strictly faster; ratio recorded."""
    rows, degree = END_TO_END_WORKLOAD
    matrix = generate_rmat(RMATConfig(num_rows=rows, edge_factor=degree,
                                      seed=5))
    scalar = SpArch(SpArchConfig(engine="scalar"))
    vectorized = SpArch(SpArchConfig(engine="vectorized"))

    scalar_time = _best_of(REPEATS, lambda: scalar.multiply(matrix, matrix))
    benchmark.pedantic(lambda: vectorized.multiply(matrix, matrix),
                       rounds=REPEATS, iterations=1)
    vectorized_best = min(benchmark.stats.stats.data)

    speedup = scalar_time / vectorized_best
    benchmark.extra_info["scalar_seconds"] = scalar_time
    benchmark.extra_info["vectorized_seconds"] = vectorized_best
    benchmark.extra_info["end_to_end_speedup"] = speedup
    record_result("engine_speed[end_to_end]",
                  scalar_seconds=scalar_time,
                  vectorized_seconds=vectorized_best,
                  speedup=speedup,
                  threshold=END_TO_END_MIN_SPEEDUP)
    if speedup < END_TO_END_MIN_SPEEDUP:
        enforce_threshold(
            f"end-to-end vectorized run only {speedup:.2f}x faster "
            f"(scalar {scalar_time:.3f}s, vectorized {vectorized_best:.3f}s)"
        )
