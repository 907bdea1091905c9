"""Observability CLI.

Usage::

    python -m repro.obs report trace.jsonl           # human summary
    python -m repro.obs report traces_dir/           # merge per-task traces
    python -m repro.obs report a.jsonl b.jsonl       # merge several files
    python -m repro.obs report trace.jsonl --json    # machine-readable
    python -m repro.obs report trace.jsonl --strict  # fail on unparsed
    python -m repro.obs diff base.json other.json    # regression verdicts

Also reachable as ``python -m repro obs ...``. ``report`` exits 0 on a
clean trace, and also on an empty one or one with some unparsed lines;
``--strict`` exits 1 when any line failed to parse or the trace holds
no records at all (the acceptance bar for a healthy trace is at least
one record and zero unparsed lines). ``diff`` compares two artifacts —
``BENCH_*.json``, ``report --json`` output, or raw traces — and exits 1
when any directional metric regressed past ``--fail`` (default 25%);
drift past ``--warn`` (default 10%) is annotated but passes. Both exit
2, with a one-line message on stderr, when an input is missing or in no
recognised format — for ``report``, unparsed lines and not one record —
so a broken input never reads as a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .diff import diff_artifacts, unrecognised_input
from .report import render_report, summarize_paths


def _cmd_report(args: argparse.Namespace) -> int:
    summary = summarize_paths(args.trace)
    if summary.unparsed and not summary.records:
        raise unrecognised_input(summary.path, summary.unparsed)
    if args.json:
        print(json.dumps(summary.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(render_report(summary))
    if args.strict and summary.unparsed:
        print(
            f"error: {summary.unparsed} unparsed line(s) in {summary.path}",
            file=sys.stderr,
        )
        return 1
    if args.strict and not summary.records:
        print(f"error: no trace records in {summary.path}", file=sys.stderr)
        return 1
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    report = diff_artifacts(
        args.base,
        args.other,
        warn_threshold=args.warn,
        fail_threshold=args.fail,
    )
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        )
    return report.exit_code


def build_parser(prog: str = "python -m repro.obs") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Summarize and diff structured observability artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="summarize JSONL trace file(s) or a trace directory"
    )
    report.add_argument(
        "trace",
        nargs="+",
        help="trace .jsonl file(s) and/or directories of per-task traces",
    )
    report.add_argument(
        "--json", action="store_true", help="emit a JSON summary instead of text"
    )
    report.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on unparsed lines or an empty trace",
    )
    report.set_defaults(func=_cmd_report)

    diff = sub.add_parser(
        "diff",
        help="compare two runs (bench JSON, report JSON, or raw traces)",
    )
    diff.add_argument("base", help="baseline artifact")
    diff.add_argument("other", help="artifact to judge against the baseline")
    diff.add_argument(
        "--warn",
        type=float,
        default=0.10,
        help="relative drift that earns a warning (default: 0.10)",
    )
    diff.add_argument(
        "--fail",
        type=float,
        default=0.25,
        help="relative regression that fails the diff (default: 0.25)",
    )
    diff.add_argument(
        "--json", action="store_true", help="emit the diff report as JSON"
    )
    diff.add_argument(
        "--report", help="also write the JSON diff report to this path"
    )
    diff.set_defaults(func=_cmd_diff)
    return parser


def main(argv: Optional[List[str]] = None, prog: str = "python -m repro.obs") -> int:
    parser = build_parser(prog=prog)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # Unreadable or unrecognised input (UnicodeDecodeError is a
        # ValueError). Exit 2, not 1: 1 is diff's regression verdict.
        print(f"{prog} {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
