"""CLI: statically verify searchable artifacts and the repo's own code.

Artifact mode (the original verifier)::

    python -m repro.analysis tree.json                # auto-detect kind
    python -m repro.analysis --kind model_spec m.json # force the kind
    python -m repro.analysis --strict tree.json       # warnings fail too

Flow mode (the flowcheck engine)::

    python -m repro.analysis --flow                   # src/repro + benchmarks
                                                      # + examples (those that
                                                      # exist)
    python -m repro.analysis --flow src/repro tests   # explicit paths
    python -m repro.analysis --flow --json            # machine-readable
    python -m repro.analysis --flow --report out.json # JSON report to a file
                                                      # (CI artifact), human
                                                      # output on stdout
    python -m repro.analysis --flow --list-rules      # rule catalog

A finding is accepted only by an inline ``# flowcheck: ignore[rule-id]``
pragma at its line. Exit status is 0 when clean, 1 with findings
(artifact errors, or unsuppressed flowcheck findings), 2 on usage errors
(including a flow target that is neither a directory nor a ``.py`` file).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .artifact import KINDS, verify_artifact
from .diagnostics import Severity
from .flowcheck import check_paths, rule_catalog

_JSON_SCHEMA_VERSION = 2

#: Directories --flow checks when no targets are given (those that exist).
_DEFAULT_FLOW_TARGETS = ("src/repro", "benchmarks", "examples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Statically verify model specs, plans and model trees "
            "(artifact mode), or the repo's own source (--flow)."
        ),
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="JSON artifact files, or source paths with --flow "
        "(default: src/repro, benchmarks and examples, those that exist)",
    )
    parser.add_argument(
        "--kind", choices=KINDS, default="",
        help="force the artifact kind instead of auto-detecting",
    )
    parser.add_argument(
        "--strict", action="store_true", help="treat warnings as failures"
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress per-artifact OK lines"
    )
    flow = parser.add_argument_group("flow mode")
    flow.add_argument(
        "--flow", action="store_true",
        help="run the flowcheck engine over source paths instead of artifacts",
    )
    flow.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the JSON report on stdout instead of human output",
    )
    flow.add_argument(
        "--report", default="", metavar="FILE",
        help="also write the JSON report to FILE (for CI artifacts)",
    )
    flow.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    return parser


def _default_flow_targets() -> List[str]:
    existing = [t for t in _DEFAULT_FLOW_TARGETS if Path(t).is_dir()]
    return existing or [_DEFAULT_FLOW_TARGETS[0]]


def _flow_main(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule_id, summary in rule_catalog().items():
            print(f"{rule_id:20s} {summary}")
        return 0
    targets = args.targets or _default_flow_targets()
    bad_targets = [
        target
        for target in map(Path, targets)
        if not target.is_dir()
        and not (target.is_file() and target.suffix == ".py")
    ]
    if bad_targets:
        print(
            "flowcheck: not a directory or .py file: "
            + ", ".join(map(str, bad_targets)),
            file=sys.stderr,
        )
        return 2
    result = check_paths(targets)
    findings = result.findings

    payload = {
        "version": _JSON_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "findings": [finding.to_json() for finding in findings],
        "suppressed": result.suppressed,
    }
    if args.report:
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")

    if args.as_json:
        print(json.dumps(payload, indent=2))
    else:
        for finding in findings:
            print(finding.format())
    print(
        f"flowcheck: {result.files_checked} file(s), {len(findings)} "
        f"finding(s), {result.suppressed} suppressed",
        file=sys.stderr,
    )
    return 1 if findings else 0


def _artifact_main(args: argparse.Namespace) -> int:
    if not args.targets:
        print(
            "python -m repro.analysis: artifact mode needs at least one "
            "JSON artifact (or pass --flow)",
            file=sys.stderr,
        )
        return 2
    failed = False
    for path in args.targets:
        kind, diagnostics = verify_artifact(path, kind=args.kind)
        bad = [
            d
            for d in diagnostics
            if d.severity is Severity.ERROR
            or (args.strict and d.severity is Severity.WARNING)
        ]
        for diagnostic in diagnostics:
            print(f"{path}: {diagnostic.format()}")
        if bad:
            failed = True
        elif not args.quiet:
            label = kind or "artifact"
            extra = (
                f", {len(diagnostics)} warning(s)" if diagnostics else ""
            )
            print(f"{path}: OK ({label}{extra})")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.flow or args.list_rules:
        return _flow_main(args)
    return _artifact_main(args)


if __name__ == "__main__":
    sys.exit(main())
