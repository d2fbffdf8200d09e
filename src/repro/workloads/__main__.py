"""Command-line runner: ``python -m repro.workloads <id> [...]``.

Runs registered workload pipelines one-off on a benchmark-suite proxy (or
a corpus scenario) and prints the per-stage cost table — the quick way to
inspect a pipeline.  ``--list`` prints the registered workload ids;
unknown ids raise the same helpful error as the experiment registry.

Switches:

* ``--engine {scalar,vectorized}`` picks the simulation backend
  variant (``SpArchConfig(engine=...)``);
* ``--fuse`` collapses adjacent host ops into fused stages;
* ``--json OUT`` writes every run's canonical result payload (the golden
  encoding, host wall-times included) to one merged file.

The full SpArch-vs-baselines comparison sweep lives in
``python -m repro.experiments workloads``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.config import BACKENDS, SpArchConfig
from repro.engines.sparch import SpArchEngine
from repro.experiments.runner import ExperimentRunner
from repro.matrices.suite import load_benchmark
from repro.utils.reporting import Table
from repro.workloads.compiler import result_payload
from repro.workloads.registry import get_workload, list_workloads, run_workload


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Run declarative SpGEMM workload pipelines on SpArch.",
    )
    parser.add_argument("workloads", nargs="*",
                        help="workload ids to run (e.g. mcl khop), or 'all'")
    parser.add_argument("--list", action="store_true",
                        help="list the registered workloads and exit")
    parser.add_argument("--matrix", default="ca-CondMat",
                        help="benchmark-suite matrix to run on")
    parser.add_argument("--scenario", default=None, metavar="CORPUS/NAME",
                        help="run on a corpus scenario (e.g. "
                             "'smoke/wiki-Vote@120') instead of --matrix")
    parser.add_argument("--max-rows", type=int, default=600,
                        help="proxy dimension cap for the matrix")
    parser.add_argument("--engine", default=None,
                        choices=BACKENDS,
                        help="simulation backend variant "
                             "(SpArchConfig(engine=...))")
    parser.add_argument("--fuse", action="store_true",
                        help="fuse adjacent host ops into single stages")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="write the runs' canonical result payloads "
                             "(host wall-times included) to OUT")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="memoise per-stage simulations on disk under DIR")
    return parser


def _print_listing() -> None:
    for workload_id in list_workloads():
        spec = get_workload(workload_id)
        print(f"{workload_id:>10}  {spec.title}")


def _load_matrix(args: argparse.Namespace):
    """Resolve ``--scenario corpus/name`` or ``--matrix`` to (label, CSR)."""
    if args.scenario is not None:
        from repro.corpus.registry import resolve_scenario

        scenario = resolve_scenario(args.scenario)
        return args.scenario, scenario.build()
    return args.matrix, load_benchmark(args.matrix, max_rows=args.max_rows)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list or not args.workloads:
        _print_listing()
        return 0

    requested = args.workloads
    if requested == ["all"]:
        requested = list_workloads()

    label, matrix = _load_matrix(args)
    engine = "sparch"
    if args.engine is not None:
        engine = SpArchEngine(SpArchConfig(engine=args.engine))
    runner = ExperimentRunner(cache_dir=args.cache_dir)
    payloads = []
    for workload_id in requested:
        spec = get_workload(workload_id)
        result = run_workload(workload_id, matrix, engine=engine,
                              runner=runner, fuse=args.fuse)
        table = Table(
            title=f"{spec.title} — {label} ({matrix.shape[0]} rows), "
                  f"backend {result.backend}",
            columns=["stage", "kind", "inputs", "nnz", "cycles",
                     "runtime [s]", "host [s]", "DRAM [B]", "energy [J]"],
        )
        for stage in result.stages:
            table.add_row(stage.name, stage.kind, "+".join(stage.inputs),
                          stage.output_nnz, stage.cycles,
                          stage.runtime_seconds, stage.host_seconds,
                          stage.dram_bytes, stage.energy_joules)
        table.add_row("TOTAL", "", "", "", result.total_cycles,
                      result.total_runtime_seconds,
                      result.total_host_seconds, result.total_dram_bytes,
                      result.total_energy_joules)
        print(table.render())
        if result.annotations:
            notes = ", ".join(f"{key}={value:g}"
                              for key, value in result.annotations.items())
            print(f"annotations: {notes}")
        print()
        if args.json is not None:
            payloads.append(result_payload(result, host_seconds=True))
    hits, misses = runner.cache_hits, runner.cache_misses
    if hits or misses:
        print(f"[runner] {misses} stage simulations computed, "
              f"{hits} reused from cache")
    if args.json is not None:
        merged = {
            "matrix": label,
            "engine": args.engine or "vectorized",
            "fused": args.fuse,
            "results": payloads,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[json] wrote {len(payloads)} result payload(s) to "
              f"{args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
