"""Command-line runner: ``python -m repro.experiments <id> [...]``.

The batched :class:`~repro.experiments.runner.ExperimentRunner` sits behind
every experiment: simulation points shared between figures (the scaled suite
under the Table I configuration, for example) are simulated once per sweep
and, with ``--cache-dir``, once *ever* — reruns replay from the on-disk
memo.  ``--jobs N`` fans distinct points out over N worker processes;
``--engine scalar`` forces the scalar reference backend end to end — for
the SpArch simulator *and* for every baseline comparison point, which are
then memoised under engine-specific cache keys.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

from repro.core.config import BACKENDS
from repro.experiments.registry import get_experiment, list_experiments
from repro.experiments.runner import ExperimentRunner, set_default_runner
from repro.utils.reporting import cost_table


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the SpArch paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids to run (e.g. fig11 table2), or 'all'")
    parser.add_argument("--list", action="store_true",
                        help="list the registered experiments and exit")
    parser.add_argument("--max-rows", type=int, default=None,
                        help="override the benchmark proxy dimension cap")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the simulation fan-out")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="memoise simulation results on disk under DIR "
                             "(e.g. .repro-cache); default: in-memory only")
    parser.add_argument("--engine",
                        choices=BACKENDS,
                        default=None,
                        help="force a simulation backend for every run "
                             "(SpArch and baselines alike)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the results (tables and metrics) of "
                             "every experiment run as JSON to PATH")
    parser.add_argument("--reports", action="store_true",
                        help="also print each experiment's per-point cost "
                             "reports (one unified table for any engine)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list or not args.experiments:
        for experiment_id in list_experiments():
            entry = get_experiment(experiment_id)
            print(f"{experiment_id:>8}  {entry.title}")
        return 0

    requested = args.experiments
    if requested == ["all"]:
        requested = list_experiments()

    runner = ExperimentRunner(cache_dir=args.cache_dir, jobs=args.jobs,
                              engine=args.engine)
    # Harnesses called without an explicit runner fall back to the default;
    # installing ours makes the whole sweep share one memo pool.
    set_default_runner(runner)

    payloads: dict[str, dict] = {}
    for experiment_id in requested:
        entry = get_experiment(experiment_id)
        kwargs = {}
        parameters = inspect.signature(entry.run).parameters
        if args.max_rows is not None and "max_rows" in parameters:
            kwargs["max_rows"] = args.max_rows
        if "runner" in parameters:
            kwargs["runner"] = runner
        print(f"== {entry.title} ==")
        result = entry.run(**kwargs)
        print(result.render())
        if args.reports and result.reports:
            print()
            print(cost_table(f"{entry.title} — cost reports",
                             result.reports).render())
        print()
        # One schema for every registered experiment: the unified payload
        # (table + metrics + any attached CostReports) renders the same way
        # whether the harness measures figures, tables or workloads.
        payloads[experiment_id] = result.to_payload()
    if args.json is not None:
        Path(args.json).write_text(json.dumps(payloads, indent=2,
                                              sort_keys=True) + "\n")
    hits, misses = runner.cache_hits, runner.cache_misses
    if hits or misses:
        print(f"[runner] {misses} simulation points computed, "
              f"{hits} reused from cache")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
