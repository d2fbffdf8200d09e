#!/usr/bin/env python3
"""Multi-stage SpGEMM workloads through the compiler front end, end to end.

The ``repro.workloads`` subsystem expresses an application as a declarative
stage graph: you write a tiny spec (the expression language below, or a
JSON/YAML stage graph), the compiler parses it into a typed IR, checks
shapes and sparsity structure with stage-named diagnostics, schedules it
deterministically, and lowers it onto the pipeline builder — SpGEMM
stages on the SpArch simulator (or any comparison baseline), host stages
on scipy, every stage costed.

This example authors a *custom* workload from scratch — a co-citation
similarity join — compiles it, runs it cold and fused, then runs the
registered ``cosine`` workload against an MKL-class CPU baseline and
demonstrates the fingerprint cache on a warm re-run.

Run with::

    python examples/workload_pipelines.py
"""

from __future__ import annotations

import time

from repro.experiments.runner import ExperimentRunner
from repro.matrices import powerlaw_matrix
from repro.utils import human_bytes
from repro.workloads import (
    PipelineBuilder,
    compile_workload,
    list_workloads,
    run_workload,
)

#: A workload that exists nowhere in the registry — authored right here.
#: ``·`` chains SpGEMMs, ``'`` transposes, ``⊙`` masks; every assignment
#: becomes a named, costed stage.
CO_CITATION = """
    workload co_citation
    input A square
    param threshold = 0.05
    adjacency = simple_graph(A)
    incoming = adjacency'
    cocited = incoming · adjacency
    scaled = normalize_rows(cocited)
    strong = prune(scaled, threshold=threshold)
    annotate strong_pairs = off_diagonal_pairs(strong)
    output strong
"""


def describe(result) -> None:
    """Print the per-stage cost table of one workload run."""
    print(f"backend: {result.backend}")
    print(f"{'stage':>14}  {'kind':>24}  {'nnz':>8}  {'runtime':>10}  "
          f"{'host':>10}  {'DRAM':>10}")
    for stage in result.stages:
        print(f"{stage.name:>14}  {stage.kind:>24}  {stage.output_nnz:>8}  "
              f"{stage.runtime_seconds * 1e6:>8.1f}µs  "
              f"{stage.host_seconds * 1e6:>8.1f}µs  "
              f"{human_bytes(stage.dram_bytes):>10}")
    print(f"{'TOTAL':>14}  {'':>24}  {'':>8}  "
          f"{result.total_runtime_seconds * 1e6:>8.1f}µs  "
          f"{result.total_host_seconds * 1e6:>8.1f}µs  "
          f"{human_bytes(result.total_dram_bytes):>10}")


def main() -> None:
    print("registered workloads:", ", ".join(list_workloads()))

    # --- 1. Author and compile a custom spec -----------------------------
    workload = compile_workload(CO_CITATION)
    print(f"\n== custom spec '{workload.name}' "
          f"({len(workload.order)} scheduled nodes) ==")

    matrix = powerlaw_matrix(1500, 8.0, seed=7)
    runner = ExperimentRunner()

    def run_compiled(*, fuse: bool):
        pipeline = PipelineBuilder("sparch", runner=runner,
                                   inputs={"A": matrix})
        output = workload.run(pipeline, params={"threshold": 0.1}, fuse=fuse)
        return pipeline.result(workload.name, output)

    plain = run_compiled(fuse=False)
    describe(plain)
    print(f"strong co-citation pairs: "
          f"{int(plain.annotations['strong_pairs'])}")

    # --- 2. Host-op fusion: same output, fewer host stages ---------------
    fused = run_compiled(fuse=True)
    print(f"\nfused run: {len(plain.stages)} stages -> {len(fused.stages)} "
          f"(host {len(plain.host_stages)} -> {len(fused.host_stages)}), "
          "identical output:",
          (fused.output.data == plain.output.data).all())

    # --- 3. A registered workload on SpArch vs an MKL-class baseline -----
    print("\n== registered 'cosine' workload, SpArch vs CPU baseline ==")
    start = time.perf_counter()
    on_sparch = run_workload("cosine", matrix, runner=runner, threshold=0.3)
    cold_seconds = time.perf_counter() - start
    on_mkl = run_workload("cosine", matrix, engine="mkl", runner=runner,
                          threshold=0.3)
    speedup = on_mkl.total_runtime_seconds / on_sparch.total_runtime_seconds
    saving = on_mkl.total_energy_joules / on_sparch.total_energy_joules
    print(f"modelled CPU runtime  : {on_mkl.total_runtime_seconds * 1e6:.1f} µs")
    print(f"accelerator speedup   : {speedup:.1f}x")
    print(f"energy saving         : {saving:.1f}x")

    # --- 4. Warm re-run: SpGEMM stages replay from the fingerprint cache -
    start = time.perf_counter()
    warm = run_workload("cosine", matrix, runner=runner, threshold=0.3)
    warm_seconds = time.perf_counter() - start
    assert warm == on_sparch
    print(f"\ncached re-run         : {warm_seconds * 1e3:.1f} ms "
          f"(cold {cold_seconds * 1e3:.1f} ms, "
          f"{cold_seconds / warm_seconds:.1f}x faster)")


if __name__ == "__main__":
    main()
