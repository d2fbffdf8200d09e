"""Sharded, resumable corpus sweeps with an append-only result store.

* :mod:`repro.sweeps.spec` — :class:`SweepSpec` (corpus × engines ×
  SpArch configs) and the canonical cell order / shard assignment.
* :mod:`repro.sweeps.store` — the JSONL :class:`ResultStore`: one
  schema-versioned :class:`~repro.metrics.report.CostReport` per cell,
  keyed by the experiment runner's fingerprint, with canonical merging;
  every reader of a store file reads through its ``StoreScan``.
* :mod:`repro.sweeps.driver` — :func:`run_sweep`, the sharded/resumable
  executor over :class:`~repro.experiments.runner.ExperimentRunner`.
* :mod:`repro.sweeps.index` — the sqlite sidecar index
  (:class:`SweepIndex`): a read-side cache with one row per cell
  (coordinates and denormalised summary scalars).  Writers append to the
  JSONL only; each query first ingests the bytes appended since the last
  one, so summaries, filters and resume never re-scan the whole file.
  Always rebuildable from the JSONL alone.
* :mod:`repro.sweeps.compact` — :func:`compact_store`, the atomic
  segment rewrite dropping superseded duplicates and torn tails (merge
  output stays byte-identical); it rebuilds the sidecar, whose
  high-water mark the rewrite invalidated.
* :mod:`repro.sweeps.synth` — deterministic synthetic stores for
  benchmarks and CI at paper scale.
* :mod:`repro.sweeps.registry` — registered sweeps (``smoke``,
  ``fig17-dse``, ``engines-suite``, ``rmat-sweep``).
* :mod:`repro.sweeps.watch` — live progress view over a growing store
  (tails the file by byte offset; fabric-sidecar aware).
* ``python -m repro.sweeps`` — the run / merge / summarise / compact /
  synth / watch CLI.
"""

from repro.sweeps.compact import CompactionStats, compact_store
from repro.sweeps.driver import (
    SweepRunSummary,
    group_reports,
    run_sweep,
    summarise_records,
)
from repro.sweeps.index import (
    INDEX_VERSION,
    IndexUnavailable,
    SweepIndex,
    drop_index,
    ensure_index,
    index_path,
)
from repro.sweeps.registry import SWEEPS, get_sweep, list_sweeps
from repro.sweeps.spec import (
    NO_CONFIG_LABEL,
    SweepCell,
    SweepSpec,
    enumerate_cells,
    shard_cells,
)
from repro.sweeps.store import (
    STORE_VERSION,
    CellEntry,
    ResultStore,
    SweepRecord,
    merge_files,
    merge_records,
    parse_line,
    records_to_reports,
    render_records,
    require_single_sweep,
    write_records,
)
from repro.sweeps.synth import synthetic_record, write_synthetic_store
from repro.sweeps.watch import StoreWatcher, WatchView, watch_store

__all__ = [
    "SweepSpec",
    "SweepCell",
    "NO_CONFIG_LABEL",
    "enumerate_cells",
    "shard_cells",
    "ResultStore",
    "SweepRecord",
    "CellEntry",
    "STORE_VERSION",
    "parse_line",
    "merge_records",
    "merge_files",
    "records_to_reports",
    "render_records",
    "require_single_sweep",
    "write_records",
    "SweepIndex",
    "IndexUnavailable",
    "INDEX_VERSION",
    "index_path",
    "ensure_index",
    "drop_index",
    "CompactionStats",
    "compact_store",
    "write_synthetic_store",
    "synthetic_record",
    "run_sweep",
    "SweepRunSummary",
    "group_reports",
    "summarise_records",
    "SWEEPS",
    "list_sweeps",
    "get_sweep",
    "StoreWatcher",
    "WatchView",
    "watch_store",
]
