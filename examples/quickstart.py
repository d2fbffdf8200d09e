#!/usr/bin/env python3
"""Quickstart: simulate one SpGEMM on SpArch and read the statistics.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import SpArch, SpArchConfig
from repro.analysis import AreaModel, EnergyModel
from repro.baselines import OuterSpaceAccelerator
from repro.matrices import load_benchmark
from repro.utils import human_bytes


def main() -> None:
    # 1. Load a workload.  The paper's 20 benchmark matrices are regenerated
    #    as synthetic proxies (no network access); `max_rows` caps the proxy
    #    dimension so the pure-Python simulation stays fast.
    matrix = load_benchmark("wiki-Vote", max_rows=1500)
    print(f"workload: wiki-Vote proxy, shape={matrix.shape}, nnz={matrix.nnz}")

    # 2. Simulate C = A · A on the Table I configuration.
    config = SpArchConfig()
    result = SpArch(config).multiply(matrix, matrix)
    stats = result.stats
    print(f"result nnz            : {result.nnz}")
    print(f"simulated cycles      : {stats.cycles:,}")
    print(f"achieved throughput   : {stats.gflops:.2f} GFLOP/s")
    print(f"DRAM traffic          : {human_bytes(stats.dram_bytes)}")
    print(f"  - partial matrices  : {human_bytes(stats.traffic.partial_matrix_bytes)}")
    print(f"  - operand reads     : {human_bytes(stats.traffic.input_bytes)}")
    print(f"prefetch buffer hits  : {stats.prefetch_hit_rate:.1%}")
    print(f"condensed columns     : {stats.condensed_columns} "
          f"(from {matrix.num_cols} original columns)")
    print(f"merge rounds          : {stats.num_merge_rounds}")

    # 3. Energy and area come from the analytical models of Table II/III.
    energy = EnergyModel()
    print(f"dynamic energy        : {energy.total_energy(stats, config) * 1e6:.1f} µJ")
    print(f"average power         : {energy.average_power(stats, config):.2f} W")
    print(f"accelerator area      : {AreaModel().total_area(config):.2f} mm²")

    # 4. Compare against the OuterSPACE baseline on the same workload.
    outerspace = OuterSpaceAccelerator().run(matrix, matrix).report
    speedup = outerspace.runtime_seconds / stats.runtime_seconds
    traffic_saving = outerspace.dram_bytes / stats.dram_bytes
    print(f"speedup vs OuterSPACE : {speedup:.2f}x")
    print(f"DRAM saving vs OuterSPACE: {traffic_saving:.2f}x")


if __name__ == "__main__":
    main()
