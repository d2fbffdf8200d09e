"""Command-line runner: ``python -m repro.sweeps <command> [...]``.

Three subcommands cover the sweep-as-a-service lifecycle:

* ``run SWEEP --store out.jsonl [--shard i/n]`` — execute (one shard of) a
  registered sweep, appending schema-versioned cost reports to a resumable
  JSONL result store.  Re-running with the same store re-executes only
  unfinished cells; ``--jobs``/``--cache-dir`` reuse the experiment
  runner's fan-out and disk memo.
* ``merge --out merged.jsonl SHARD...`` — canonically merge shard stores
  (sorted by cell order, one record per cell; conflicting records of one
  cell — stores written under different parameters — are refused); the
  merged bytes are independent of shard count and resume history.  The
  merge streams the JSONL line by line (only a coordinate index in
  memory), so paper-scale million-cell stores merge within bounded memory.
* ``summarise STORE...`` — print the per-(engine, config) summary table
  (geomean GFLOP/s, DRAM, runtime, energy) of one or more stores; a
  fabric sidecar's quarantined cells are reported alongside.  Served
  from the sqlite sidecar index, which first ingests only the bytes
  appended since it was last read (the whole file when it is missing),
  and streamed line by line as a last resort.  ``--where
  engine=sparch,scenario=NAME --top K --sort METRIC`` switches to a
  per-cell listing — equality filters plus top-k over any recorded
  metric, answered entirely from the index.
* ``watch STORE`` — live progress view over a growing store (done /
  pending / failed, rows/sec, ETA); incremental byte reads — safe to
  run next to a shard run or a fabric fleet.
* ``compact STORE...`` — rewrite a store segment atomically, dropping
  superseded duplicate records and torn tails; the canonical merge of
  the compacted store is byte-identical to the uncompacted one.
* ``synth STORE --cells N`` — write a deterministic synthetic store
  (valid records, optional crash debris with ``--dirty``) for
  benchmarks and CI at scales real sweeps take hours to produce.

``--list`` (or no arguments) prints the registered sweeps and corpora.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.config import BACKENDS
from repro.corpus.registry import get_corpus, list_corpora
from repro.experiments.runner import ExperimentRunner
from repro.sweeps.driver import run_sweep, summarise_store_file
from repro.sweeps.index import METRIC_COLUMNS
from repro.sweeps.registry import get_sweep, list_sweeps
from repro.sweeps.spec import enumerate_cells
from repro.sweeps.store import StoreScan, merge_files_to

#: CLI-friendly aliases for ``--where`` filter columns.
_WHERE_ALIASES = {"config": "config_label", "sweep": "sweep_id"}


def _parse_shard(value: str) -> tuple[int, int]:
    """Parse ``"i/n"`` into ``(shard_index, shard_count)``."""
    try:
        index_text, count_text = value.split("/", 1)
        shard_index, shard_count = int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected SHARD as i/n (e.g. 0/2), got {value!r}"
        ) from None
    if shard_count < 1 or not 0 <= shard_index < shard_count:
        raise argparse.ArgumentTypeError(
            f"shard index must satisfy 0 <= i < n, got {value!r}"
        )
    return shard_index, shard_count


def _parse_where(value: str) -> dict[str, str]:
    """Parse ``k=v[,k=v...]`` filter clauses into a column→value dict."""
    filters: dict[str, str] = {}
    for clause in value.split(","):
        if "=" not in clause:
            raise argparse.ArgumentTypeError(
                f"expected --where clauses as column=value, got {clause!r}"
            )
        column, _, filter_value = clause.partition("=")
        column = column.strip()
        filters[_WHERE_ALIASES.get(column, column)] = filter_value.strip()
    return filters


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweeps",
        description="Sharded, resumable corpus sweeps over the engine "
                    "registry.",
    )
    parser.add_argument("--list", action="store_true",
                        help="list the registered sweeps and corpora and "
                             "exit")
    commands = parser.add_subparsers(dest="command")

    run = commands.add_parser(
        "run", help="execute (one shard of) a registered sweep")
    run.add_argument("sweep", help="sweep id (see --list)")
    run.add_argument("--store", default=None, metavar="PATH",
                     help="resumable JSONL result store (default: "
                          "in-memory only)")
    run.add_argument("--shard", type=_parse_shard, default=(0, 1),
                     metavar="I/N",
                     help="own cells with index %% N == I (default 0/1)")
    run.add_argument("--max-rows", type=int, default=None,
                     help="cap the corpus scenario dimensions")
    run.add_argument("--max-cells", type=int, default=None,
                     help="stop after executing this many cells "
                          "(time-boxed incremental runs)")
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the engine fan-out")
    run.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="share the experiment runner's on-disk memo")
    run.add_argument("--engine",
                     choices=BACKENDS,
                     default=None,
                     help="force an execution backend (backend-specific "
                          "fingerprints, as in the experiments CLI)")
    run.add_argument("--cell-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-cell wall-clock budget: a hung engine "
                          "marks its cell failed-retryable instead of "
                          "blocking the shard")

    merge = commands.add_parser(
        "merge", help="canonically merge shard stores into one")
    merge.add_argument("stores", nargs="+", metavar="STORE",
                       help="shard store files to merge")
    merge.add_argument("--out", required=True, metavar="PATH",
                       help="merged store destination")

    summarise = commands.add_parser(
        "summarise", help="print the per-(engine, config) summary of "
                          "one or more stores")
    summarise.add_argument("stores", nargs="+", metavar="STORE",
                           help="store files to summarise (merged first)")
    summarise.add_argument("--where", type=_parse_where, default=None,
                           metavar="K=V[,K=V...]",
                           help="list individual cells matching equality "
                                "filters (engine=..., scenario=..., "
                                "config=..., sweep=...) instead of the "
                                "grouped summary")
    summarise.add_argument("--top", type=int, default=None, metavar="K",
                           help="list only the K best cells by --sort "
                                "(implies the per-cell listing)")
    summarise.add_argument("--sort", choices=METRIC_COLUMNS,
                           default="gflops", metavar="METRIC",
                           help="metric ordering the per-cell listing "
                                f"({', '.join(METRIC_COLUMNS)}; "
                                "default gflops)")

    compact = commands.add_parser(
        "compact", help="rewrite a store atomically, dropping superseded "
                        "duplicates and torn tails (merge output stays "
                        "byte-identical)")
    compact.add_argument("stores", nargs="+", metavar="STORE",
                         help="store files to compact in place")
    compact.add_argument("--no-fsync", action="store_true",
                         help="skip flushing the rewritten segment to "
                              "stable storage before the atomic rename")

    synth = commands.add_parser(
        "synth", help="write a deterministic synthetic store (benchmarks "
                      "and CI at paper scale)")
    synth.add_argument("store", metavar="PATH",
                       help="store file to write (overwritten)")
    synth.add_argument("--cells", type=int, default=1000,
                       help="grid cells to record (default 1000)")
    synth.add_argument("--seed", type=int, default=0,
                       help="metric-generator seed (same seed, "
                            "byte-identical store)")
    synth.add_argument("--sweep-id", default=None,
                       help="sweep id stamped on the records")
    synth.add_argument("--dirty", action="store_true",
                       help="append superseded duplicates and a torn tail "
                            "(compaction-test input)")
    synth.add_argument("--no-index", action="store_true",
                       help="skip building the sqlite sidecar index")

    watch = commands.add_parser(
        "watch", help="live progress view over a growing store")
    watch.add_argument("store", metavar="STORE",
                       help="store file to watch (may not exist yet)")
    watch.add_argument("--interval", type=float, default=2.0,
                       help="seconds between polls (default 2)")
    watch.add_argument("--iterations", type=int, default=None,
                       help="stop after N samples even if unfinished "
                            "(one-shot status checks, CI)")
    return parser


def _print_listing() -> None:
    print("registered sweeps:")
    for sweep_id in list_sweeps():
        spec = get_sweep(sweep_id)
        cells = len(enumerate_cells(spec))
        print(f"{sweep_id:>14}  {spec.title} "
              f"[corpus {spec.corpus}, {cells} cells]")
    print()
    print("registered corpora:")
    for corpus_id in list_corpora():
        spec = get_corpus(corpus_id)
        print(f"{corpus_id:>14}  {spec.title} "
              f"[{len(spec.scenarios)} scenarios]")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list or args.command is None:
        _print_listing()
        return 0

    if args.command == "run":
        spec = get_sweep(args.sweep)
        runner = ExperimentRunner(cache_dir=args.cache_dir, jobs=args.jobs,
                                  engine=args.engine)
        shard_index, shard_count = args.shard
        summary, store = run_sweep(
            spec, store=args.store, runner=runner,
            shard_index=shard_index, shard_count=shard_count,
            max_rows=args.max_rows, max_cells=args.max_cells,
            cell_timeout=args.cell_timeout)
        print(summary.render())
        print(f"[runner] {runner.cache_misses} points computed, "
              f"{runner.cache_hits} reused from cache")
        if store.path is not None:
            print(f"[store] {len(store)} records in {store.path}")
        return 0

    if args.command == "watch":
        from repro.sweeps.watch import watch_store

        watch_store(args.store, interval=args.interval,
                    iterations=args.iterations)
        return 0

    if args.command == "merge":
        # Streaming merge: only the coordinate index is held in memory, so
        # million-cell shard stores merge without materialising reports.
        count = merge_files_to(args.stores, args.out)
        print(f"[merge] {count} records from {len(args.stores)} "
              f"store(s) -> {args.out}")
        return 0

    if args.command == "compact":
        from repro.sweeps.compact import compact_store

        for store_path in args.stores:
            print(compact_store(store_path,
                                fsync=not args.no_fsync).render())
        return 0

    if args.command == "synth":
        from repro.sweeps.synth import DEFAULT_SWEEP_ID, write_synthetic_store

        num_bytes = write_synthetic_store(
            args.store, args.cells,
            sweep_id=args.sweep_id or DEFAULT_SWEEP_ID, seed=args.seed,
            dirty=args.dirty, index=not args.no_index)
        print(f"[synth] {args.cells} cells ({num_bytes} bytes) -> "
              f"{args.store}")
        return 0

    # "summarise" — served from the sqlite sidecar index whenever sqlite
    # is usable: a single store's index catches up with its tail and
    # answers; several shards pay one scan to merge, then query the
    # merged store's index.  When sqlite itself is unavailable, the
    # fully-streamed path still answers.
    import os
    import tempfile

    from repro.sweeps.index import (
        IndexUnavailable,
        cells_table,
        ensure_index,
    )

    for store_path in args.stores:
        if not os.path.isfile(store_path):
            raise FileNotFoundError(
                f"result store not found: {store_path}")
    listing = args.where is not None or args.top is not None

    def _summarise_indexed(store_index) -> None:
        if listing:
            rows = store_index.query_cells(where=args.where,
                                           sort=args.sort, limit=args.top)
            clauses = " and ".join(f"{column}={value}" for column, value
                                   in (args.where or {}).items())
            title = f"top {len(rows)} cells by {args.sort}"
            if clauses:
                title += f" where {clauses}"
            print(cells_table(rows, title=title).render())
            print()
            return
        counts = store_index.sweep_counts()
        for sweep_id in sorted(counts):
            print(store_index.summarise(
                sweep_id=sweep_id,
                title=(f"sweep {sweep_id!r} summary "
                       f"({counts[sweep_id]} cells)")).render())
            print()

    store_index = None
    if len(args.stores) == 1:
        try:
            store_index = ensure_index(args.stores[0])
        except IndexUnavailable:
            store_index = None
    if store_index is not None:
        try:
            _summarise_indexed(store_index)
        finally:
            store_index.close()
    else:
        # Several shards (or no usable single-store index): merge
        # canonically into a temporary store first, as before.
        handle = tempfile.NamedTemporaryFile(
            mode="w", suffix=".jsonl", prefix="repro-sweep-merge-",
            delete=False)
        handle.close()
        try:
            merge_files_to(args.stores, handle.name)
            try:
                store_index = ensure_index(handle.name)
            except IndexUnavailable:
                store_index = None
            if store_index is not None:
                try:
                    _summarise_indexed(store_index)
                finally:
                    store_index.close()
            elif listing:
                raise RuntimeError(
                    "--where/--top/--sort need the sqlite sidecar index, "
                    "which is unavailable on this system")
            else:
                # Fully streamed fallback: one table per sweep, line by
                # line, bounded memory end to end.
                cells_per_sweep: dict[str, int] = {}
                for record, _, _ in StoreScan(handle.name):
                    cells_per_sweep[record.sweep_id] = (
                        cells_per_sweep.get(record.sweep_id, 0) + 1)
                for sweep_id in sorted(cells_per_sweep):
                    print(summarise_store_file(
                        handle.name, sweep_id=sweep_id,
                        title=(f"sweep {sweep_id!r} summary "
                               f"({cells_per_sweep[sweep_id]} cells)")
                    ).render())
                    print()
        finally:
            from repro.sweeps.index import drop_index

            drop_index(handle.name)
            os.unlink(handle.name)

    # A fabric-run store carries a sidecar with quarantine post-mortems;
    # a summary that silently omitted poisoned cells would misread as
    # complete, so report them here.
    from repro.fabric.coordinator import read_sidecar

    for store_path in args.stores:
        sidecar = read_sidecar(store_path)
        if not sidecar or not sidecar.get("quarantined"):
            continue
        print(f"[fabric] {store_path}: "
              f"{len(sidecar['quarantined'])} quarantined cell(s)")
        for cell in sidecar["quarantined"]:
            print(f"  cell {cell['cell_index']} after "
                  f"{cell['attempts']} attempts: {cell['error']}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
