"""CLI for regenerating the paper's tables and figures.

Usage::

    python -m repro.experiments table1
    python -m repro.experiments table4 --episodes 30
    python -m repro.experiments table3 --workers 2 --journal /tmp/t3.jsonl
    python -m repro.experiments all
"""

from __future__ import annotations

import argparse
import sys

from . import (
    chaos,
    energy,
    fig1,
    fig5,
    fig7,
    fig8,
    parallel,
    regret,
    sweep,
    table1,
    table2,
    table3,
    table45,
)
from ..runtime.faults import PoolChaos, WorkerCrash
from .common import ExperimentConfig, PoolOptions


def _tables45(config, pool_options=None):
    return table45.main(config, pool_options)


#: Experiments that understand the pool flags — everything scene- or
#: cell-mapped. The rest run single searches and ignore ``--workers``.
POOL_AWARE = {"table3", "table4", "table5", "sweep", "chaos", "parallel"}

EXPERIMENTS = {
    "table1": lambda config: table1.main(),
    "table2": lambda config: table2.main(),
    "table3": table3.main,
    "table4": _tables45,
    "table5": _tables45,
    "fig1": lambda config: fig1.main(),
    "fig5": lambda config: fig5.main(),
    "fig7": lambda config: fig7.main(),
    "fig8": fig8.main,
    "chaos": chaos.main,
    "sweep": sweep.main,
    "energy": energy.main,
    "regret": regret.main,
    "parallel": parallel.main,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--tree-episodes", type=int, default=20, help="Alg. 3 episodes per scene"
    )
    parser.add_argument(
        "--branch-episodes", type=int, default=40, help="Alg. 1 episodes per search"
    )
    parser.add_argument(
        "--requests", type=int, default=40, help="inference requests per replay"
    )
    parser.add_argument("--seed", type=int, default=0)
    pool = parser.add_argument_group(
        "parallel execution (table3/table4/table5/sweep/chaos/parallel)"
    )
    pool.add_argument(
        "--workers",
        type=int,
        default=0,
        help="fan scenes/cells across N worker processes (0/1 = serial)",
    )
    pool.add_argument(
        "--journal",
        metavar="PATH",
        help="crash-safe result journal; rerunning resumes from completed cells",
    )
    pool.add_argument(
        "--pool-report",
        metavar="PATH",
        help="write the pool robustness + merged-telemetry report (JSON)",
    )
    pool.add_argument(
        "--trace-dir",
        metavar="DIR",
        help="stream one observability trace per task into this directory "
        "(repro obs report DIR merges them)",
    )
    pool.add_argument(
        "--inject-crash",
        metavar="TASK_ID",
        action="append",
        default=[],
        help="chaos: crash the worker on this task's first attempt (repeatable)",
    )
    args = parser.parse_args(argv)
    pool_flags = {
        "--journal": args.journal,
        "--pool-report": args.pool_report,
        "--trace-dir": args.trace_dir,
        "--inject-crash": args.inject_crash,
    }
    for flag, value in pool_flags.items():
        if not value:
            continue
        if args.experiment not in POOL_AWARE | {"all"}:
            parser.error(
                f"{flag} only applies to {', '.join(sorted(POOL_AWARE))}"
            )
        # ``parallel`` always runs its pool with at least 2 workers.
        if args.experiment != "parallel" and args.workers < 2:
            parser.error(f"{flag} needs --workers 2 or more")

    config = ExperimentConfig(
        tree_episodes=args.tree_episodes,
        branch_episodes=args.branch_episodes,
        emulation_requests=args.requests,
        seed=args.seed,
    )
    pool_chaos = None
    if args.inject_crash:
        pool_chaos = PoolChaos(
            tuple(WorkerCrash(task_id) for task_id in args.inject_crash)
        )
    pool_options = PoolOptions(
        workers=args.workers,
        journal=args.journal,
        report_path=args.pool_report,
        chaos=pool_chaos,
        trace_dir=args.trace_dir,
    )

    if args.experiment == "all":
        seen = set()
        for name in sorted(EXPERIMENTS):
            runner = EXPERIMENTS[name]
            if id(runner) in seen:
                continue
            seen.add(id(runner))
            print(f"===== {name} =====")
            if name in POOL_AWARE:
                runner(config, pool_options)
            else:
                runner(config)
            print()
    elif args.experiment in POOL_AWARE:
        EXPERIMENTS[args.experiment](config, pool_options)
    else:
        EXPERIMENTS[args.experiment](config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
