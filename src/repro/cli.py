"""Command-line entry point: ``python -m repro`` / ``repro``.

Examples
--------
List experiments::

    repro list

Run one experiment at the default (laptop) scale::

    repro run fig3a

Run at the paper's scale::

    repro run fig3a --jobs 12000

Run everything::

    repro all
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Optional, Sequence

from .experiments import EXPERIMENTS, STUDIES

__all__ = ["main", "build_parser", "DEFAULT_STORE"]

#: Where ``repro study`` keeps its content-addressed result store
#: unless ``--store`` points elsewhere.
DEFAULT_STORE = ".repro-store"


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of Toporkov (PaCT 2009): application-"
                     "level and job-flow scheduling for QoS in "
                     "distributed computing"),
    )
    commands = parser.add_subparsers(dest="command")

    commands.add_parser("list", help="list available experiments")

    run = commands.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS),
                     help="experiment id (table/figure)")
    run.add_argument("--jobs", type=int, default=None,
                     help="number of jobs (default: laptop scale)")
    run.add_argument("--seed", type=int, default=2009,
                     help="experiment seed (default 2009)")
    run.add_argument("--json", metavar="PATH", default=None,
                     help="also write the table as JSON to PATH")
    run.add_argument("--workers", type=int, default=1, metavar="N",
                     help="fan the underlying study out over N processes "
                          "(results are bit-identical to --workers 1; "
                          "0 means one per CPU)")

    everything = commands.add_parser("all", help="run every experiment")
    everything.add_argument("--jobs", type=int, default=None,
                            help="number of jobs for every experiment")
    everything.add_argument("--seed", type=int, default=2009)
    everything.add_argument("--workers", type=int, default=1, metavar="N",
                            help="study fan-out processes (0: one per CPU)")

    analyze = commands.add_parser(
        "analyze",
        help="verify schedule invariants (Fig. 2 worked example)")
    analyze.add_argument("--skip-strategies", action="store_true",
                         help="verify only the paper distributions and "
                              "the critical works outcome")
    analyze.add_argument("--lint", metavar="PATH", nargs="+", default=None,
                         help="also run the simulator lint over PATH(s)")

    study = commands.add_parser(
        "study",
        help="run study grids against the content-addressed result "
             "store (resumable: cached cells are never recomputed)")
    study_commands = study.add_subparsers(dest="study_command")

    def _add_store(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--store", metavar="DIR", default=DEFAULT_STORE,
                         help="result store directory "
                              f"(default {DEFAULT_STORE})")

    def _add_run_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("study", choices=sorted(STUDIES),
                         help="study grid id")
        sub.add_argument("--workers", type=int, default=1, metavar="N",
                         help="fan cells out over N processes (results "
                              "are bit-identical to --workers 1; 0 means "
                              "one per CPU)")
        sub.add_argument("--resume", default=True,
                         action=argparse.BooleanOptionalAction,
                         help="serve already-computed cells from the "
                              "store (--no-resume recomputes everything)")
        _add_store(sub)

    study_run = study_commands.add_parser(
        "run", help="run one study grid, resuming from the store")
    _add_run_options(study_run)
    study_run.add_argument("--json", metavar="PATH", default=None,
                           help="also write the results as JSON to PATH")

    study_ls = study_commands.add_parser(
        "ls", help="list cached cells per study")
    _add_store(study_ls)

    study_export = study_commands.add_parser(
        "export", help="run a study (resumable) and export its rows")
    _add_run_options(study_export)
    study_export.add_argument("out", metavar="PATH",
                              help="output file path")
    study_export.add_argument("--format", dest="format",
                              choices=["csv", "json", "parquet"],
                              default="csv",
                              help="export format (default csv; parquet "
                                   "needs pyarrow)")

    study_clean = study_commands.add_parser(
        "clean", help="delete cached cells (all, or one study's)")
    study_clean.add_argument("--study", choices=sorted(STUDIES),
                             default=None,
                             help="only this study's cells")
    _add_store(study_clean)

    lint = commands.add_parser(
        "lint",
        help="determinism & shareability lint (REP001-REP013; "
             "text/JSON/SARIF output, --strict, --baseline)")
    from .analysis.lint.cli import add_arguments as add_lint_arguments

    add_lint_arguments(lint)
    return parser


def _run_one(experiment_id: str, jobs: Optional[int], seed: int,
             json_path: Optional[str] = None,
             workers: Optional[int] = 1) -> None:
    runner = EXPERIMENTS[experiment_id]
    kwargs: dict = {"seed": seed}
    if jobs is not None:
        kwargs["n_jobs"] = jobs
    # Only the study-backed experiments parallelize; the rest (e.g. the
    # Fig. 2 worked example) simply do not take the argument.
    if workers != 1 and "workers" in inspect.signature(runner).parameters:
        kwargs["workers"] = workers
    table = runner(**kwargs)
    table.show()
    print()
    if json_path is not None:
        from .io import dump_json, table_to_dict

        dump_json(table_to_dict(table), json_path)


def _run_analyze(skip_strategies: bool = False,
                 lint_paths: Optional[Sequence[str]] = None) -> int:
    """Verify the Fig. 2 paper example's schedules; returns 0 when clean.

    Checks the three supporting distributions read off Fig. 2b, the
    schedule the critical works method builds, and (unless skipped) the
    full strategies of every family — each against the invariants in
    :mod:`repro.analysis.verify`.
    """
    from .analysis.verify import (verify_distribution, verify_outcome,
                                  verify_strategy)
    from .core.calendar import ReservationCalendar
    from .core.critical_works import CriticalWorksScheduler
    from .core.strategy import StrategyGenerator, StrategyType
    from .experiments.fig2_example import paper_distributions
    from .workload.paper_example import fig2_job, fig2_pool

    job, pool = fig2_job(), fig2_pool()
    reports = [
        verify_distribution(job, distribution, pool)
        for distribution in paper_distributions(job, pool).values()
    ]

    calendars = {node.node_id: ReservationCalendar() for node in pool}
    scheduler = CriticalWorksScheduler(pool)
    outcome = scheduler.build_schedule(job, calendars)
    reports.append(verify_outcome(job, outcome, pool))

    if not skip_strategies:
        generator = StrategyGenerator(pool)
        for stype in StrategyType:
            strategy = generator.generate(job, calendars, stype)
            reports.append(verify_strategy(
                strategy, pool,
                transfer_model=generator.policy_models[
                    strategy.spec.policy]))

    for report in reports:
        print(report.summary())
    broken = sum(1 for report in reports if not report.ok)
    print(f"\nverified {len(reports)} schedule set(s): "
          f"{'all invariants hold' if not broken else f'{broken} with violations'}")

    status = 1 if broken else 0
    if lint_paths:
        from .analysis.lint import main as lint_main

        print()
        status = max(status, lint_main(list(lint_paths)))
    return status


def _run_study(args: argparse.Namespace) -> int:
    """Dispatch ``repro study run/ls/export/clean``.

    ``run`` and ``export`` print a machine-greppable summary line
    (``study=... cells=N computed=X cached=Y corrupt=Z``) to stdout —
    the CI resume smoke leg asserts ``computed=0`` on a warm second
    run — while live progress goes to stderr.
    """
    from .platform import ResultStore, StudyReporter

    if args.study_command not in ("run", "ls", "export", "clean"):
        print("usage: repro study {run,ls,export,clean} ...",
              file=sys.stderr)
        return 2

    store = ResultStore(args.store)

    if args.study_command == "ls":
        inventory = store.inventory()
        if not inventory:
            print("store is empty")
            return 0
        for study, bucket in sorted(inventory.items()):
            print(f"{study} cells={bucket['cells']} "
                  f"bytes={bucket['bytes']}")
        return 0

    if args.study_command == "clean":
        removed = store.clean(study=args.study)
        scope = args.study or "all studies"
        print(f"removed {removed} cell(s) ({scope})")
        return 0

    if args.study_command in ("run", "export"):
        grid = STUDIES[args.study]()
        reporter = StudyReporter(echo=True)
        results = grid.run(workers=args.workers or None, store=store,
                           resume=args.resume, progress=reporter)
        meta = results.meta
        print(f"study={results.study} cells={meta['total']} "
              f"computed={meta['computed']} cached={meta['cached']} "
              f"corrupt={meta['corrupt']}")
        if args.study_command == "export":
            exporters = {"csv": results.to_csv, "json": results.to_json,
                         "parquet": results.to_parquet}
            try:
                exporters[args.format](args.out)
            except RuntimeError as error:  # pyarrow not installed
                print(error, file=sys.stderr)
                return 2
            print(f"wrote {len(results)} row(s) to {args.out} "
                  f"({args.format})")
        elif args.json is not None:
            results.to_json(args.json)
        return 0

    raise AssertionError("unreachable study subcommand")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for experiment_id in sorted(EXPERIMENTS):
            print(experiment_id)
        return 0
    if args.command == "run":
        _run_one(args.experiment, args.jobs, args.seed, args.json,
                 workers=args.workers or None)
        return 0
    if args.command == "all":
        for experiment_id in sorted(EXPERIMENTS):
            _run_one(experiment_id, args.jobs, args.seed,
                     workers=args.workers or None)
        return 0
    if args.command == "analyze":
        return _run_analyze(skip_strategies=args.skip_strategies,
                            lint_paths=args.lint)
    if args.command == "study":
        return _run_study(args)
    if args.command == "lint":
        from .analysis.lint.cli import run as run_lint

        return run_lint(args, parser)
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
