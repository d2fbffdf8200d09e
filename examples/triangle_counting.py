#!/usr/bin/env python3
"""Triangle counting on SpArch — one of the paper's motivating applications.

Counting triangles in an undirected graph is a classic SpGEMM workload
(§I cites Azad et al.'s matrix-algebra formulation): with A the (binary)
adjacency matrix, the number of triangles is ``trace(A³) / 6``, and the
heavy kernel is the sparse product ``A · A``.

This example builds a power-law graph, counts its triangles exactly with an
explicit wedge check, then performs the same computation through the SpArch
simulator and reports the accelerator-side statistics — what the kernel
would cost on the real chip.

Run with::

    python examples/triangle_counting.py
"""

from __future__ import annotations

import numpy as np

from repro import SpArch
from repro.baselines import GustavsonSpGEMM
from repro.formats import CSRMatrix, from_scipy, to_scipy
from repro.matrices import powerlaw_matrix
from repro.utils import human_bytes


def build_undirected_graph(num_nodes: int, avg_degree: float, *,
                           seed: int = 0) -> CSRMatrix:
    """Symmetric, zero-diagonal, 0/1 adjacency matrix of a power-law graph."""
    base = to_scipy(powerlaw_matrix(num_nodes, avg_degree, seed=seed))
    symmetric = base + base.T
    symmetric.setdiag(0)
    symmetric.eliminate_zeros()
    symmetric.data[:] = 1.0
    return from_scipy(symmetric)


def count_triangles_reference(adjacency: CSRMatrix) -> int:
    """Exact triangle count via trace(A³) / 6 computed with scipy."""
    a = to_scipy(adjacency)
    a_squared = a @ a
    trace = (a_squared.multiply(a)).sum()
    return int(round(trace / 6))


def count_triangles_on_sparch(adjacency: CSRMatrix) -> tuple[int, object]:
    """Count triangles using the simulated accelerator for the SpGEMM step."""
    result = SpArch().multiply(adjacency, adjacency)
    # trace(A² ⊙ A): sum A²[i, j] over the edges (i, j) of the graph.
    a_squared = to_scipy(result.matrix)
    triangles = int(round((a_squared.multiply(to_scipy(adjacency))).sum() / 6))
    return triangles, result.stats


def main() -> None:
    graph = build_undirected_graph(2000, 6.0, seed=42)
    print(f"graph: {graph.num_rows} nodes, {graph.nnz} directed edges, "
          f"avg degree {graph.nnz / graph.num_rows:.1f}")

    expected = count_triangles_reference(graph)
    triangles, stats = count_triangles_on_sparch(graph)
    assert triangles == expected, "accelerator result disagrees with reference"
    print(f"triangles             : {triangles} (reference {expected})")

    print("\n--- SpGEMM kernel on SpArch ---")
    print(f"multiplications       : {stats.multiplications:,}")
    print(f"simulated runtime     : {stats.runtime_seconds * 1e6:.1f} µs "
          f"({stats.gflops:.2f} GFLOP/s)")
    print(f"DRAM traffic          : {human_bytes(stats.dram_bytes)}")
    print(f"prefetch hit rate     : {stats.prefetch_hit_rate:.1%}")

    # How long would the same kernel take on a desktop CPU (MKL-class)?
    mkl = GustavsonSpGEMM().run(graph, graph).report
    print("\n--- same kernel on an MKL-class CPU ---")
    print(f"modelled runtime      : {mkl.runtime_seconds * 1e6:.1f} µs "
          f"({mkl.gflops:.2f} GFLOP/s)")
    print(f"accelerator speedup   : {mkl.runtime_seconds / stats.runtime_seconds:.1f}x")

    # The density sweep of Figure 14, in miniature: triangle counting gets
    # relatively cheaper on SpArch as the graph gets sparser.
    print("\n--- density sweep (Figure 14 in miniature) ---")
    for degree in (16.0, 8.0, 4.0):
        graph = build_undirected_graph(1500, degree, seed=7)
        _, sweep_stats = count_triangles_on_sparch(graph)
        mkl_sweep = GustavsonSpGEMM().run(graph, graph).report
        ratio = mkl_sweep.runtime_seconds / sweep_stats.runtime_seconds
        print(f"avg degree {degree:5.1f}: density {graph.density:.2e}  "
              f"SpArch {sweep_stats.gflops:6.2f} GFLOP/s  "
              f"speedup over CPU {ratio:5.1f}x")
    print("\nSpArch's advantage persists as the matrices get sparser — the "
          "qualitative claim of Figure 14.")


if __name__ == "__main__":
    main()
