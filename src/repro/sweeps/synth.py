"""Deterministic synthetic stores, for benchmarks and CI at scale.

Real million-cell stores take hours of simulation to produce; the index
and compaction machinery still has to be *measured* at that scale.  This
module writes a store of any size in seconds: valid
``store_version``/``schema_version`` lines whose reports are fully formed
:class:`~repro.metrics.report.CostReport` payloads with
pseudo-random-but-deterministic metrics (same ``seed`` → byte-identical
store), so every real code path — eager load, lazy hydration, streamed
summarise, index rebuild, compaction, canonical merge — runs exactly as
it would on sweep output.

``dirty=True`` additionally appends superseded duplicate records and a
torn tail fragment, producing the store a crash-riddled multi-writer run
would leave behind — the input the CI compaction/merge-parity check
wants.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

from repro.metrics.report import CostReport
from repro.sweeps.store import SweepRecord

#: The synthetic grid's engine/config columns (two simulated SpArch
#: design points, two baselines — the shape real sweeps have).
ENGINE_CONFIGS = (
    ("sparch", "table1"),
    ("sparch", "half-merge"),
    ("mkl", "-"),
    ("hash", "-"),
)

DEFAULT_SWEEP_ID = "synth-sweep"


def synthetic_record(position: int, *, sweep_id: str = DEFAULT_SWEEP_ID,
                     seed: int = 0) -> SweepRecord:
    """The ``position``-th synthetic record (deterministic in ``seed``)."""
    engine, config_label = ENGINE_CONFIGS[position % len(ENGINE_CONFIGS)]
    scenario = f"synth/{position // len(ENGINE_CONFIGS):06d}"
    rng = random.Random(f"{seed}:{position}")
    multiplications = rng.randrange(10**6, 10**9)
    additions = int(multiplications * rng.uniform(0.6, 0.95))
    runtime = (multiplications + additions) / rng.uniform(1e9, 2e10)
    traffic = ({"total": rng.randrange(10**6, 10**9)}
               if config_label == "-" else
               {"matrix_a_read": rng.randrange(10**5, 10**8),
                "matrix_b_read": rng.randrange(10**5, 10**8),
                "partial_write": rng.randrange(10**5, 10**8),
                "partial_read": rng.randrange(10**5, 10**8),
                "output_write": rng.randrange(10**5, 10**8)})
    report = CostReport(
        engine=engine,
        kind="baseline" if config_label == "-" else "simulation",
        backend="synthetic",
        cycles=0 if config_label == "-" else rng.randrange(10**5, 10**8),
        runtime_seconds=runtime,
        multiplications=multiplications,
        additions=additions,
        bookkeeping_ops=rng.randrange(10**4, 10**7),
        comparator_ops=0 if config_label == "-" else rng.randrange(10**7),
        output_nnz=rng.randrange(10**4, 10**7),
        traffic=traffic,
        energy={"multiplier": rng.uniform(1e-4, 1e-2),
                "merger": rng.uniform(1e-4, 1e-2),
                "dram": rng.uniform(1e-3, 1e-1)},
        energy_joules=rng.uniform(1e-3, 1e-1),
        clock_hz=1e9,
        peak_bandwidth_bytes_per_cycle=128.0,
        extras={"synthetic": 1.0},
        detail={"generator": "repro.sweeps.synth", "seed": seed,
                "position": position},
    )
    return SweepRecord(
        sweep_id=sweep_id,
        cell_index=position,
        scenario=scenario,
        engine=engine,
        config_label=config_label,
        key=f"synth:{seed}:{position:08d}",
        report=report.to_dict(),
    )


def write_synthetic_store(path: str | os.PathLike, cells: int, *,
                          sweep_id: str = DEFAULT_SWEEP_ID, seed: int = 0,
                          dirty: bool = False, index: bool = True) -> int:
    """Write a ``cells``-cell synthetic store file; returns bytes written.

    Args:
        path: target JSONL file (overwritten).
        cells: number of distinct grid cells to record.
        sweep_id: sweep id stamped on every record.
        seed: metric-generator seed — same seed, byte-identical store.
        dirty: append superseded duplicates (one per 100 cells) and a
            torn final-line fragment, simulating crash-riddled
            multi-writer history for compaction tests.
        index: build the sqlite sidecar index after writing (one rebuild
            now instead of a scan on the first read).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as sink:
        chunk: list[str] = []
        for position in range(cells):
            chunk.append(synthetic_record(position, sweep_id=sweep_id,
                                          seed=seed).to_line())
            if len(chunk) >= 1024:
                sink.write("".join(chunk))
                chunk.clear()
        if dirty:
            for position in range(0, cells, 100):
                chunk.append(synthetic_record(position, sweep_id=sweep_id,
                                              seed=seed).to_line())
            if cells:
                torn = synthetic_record(cells - 1, sweep_id=sweep_id,
                                        seed=seed).to_line()
                chunk.append(torn[:max(1, len(torn) // 2)])
        sink.write("".join(chunk))
    if index:
        from repro.sweeps.index import IndexUnavailable, SweepIndex, drop_index

        try:
            store_index = SweepIndex(path)
            try:
                store_index.rebuild()
            finally:
                store_index.close()
        except IndexUnavailable:
            drop_index(path)
    return path.stat().st_size
