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
    python -m repro.analysis --flow --format json     # machine-readable
    python -m repro.analysis --flow --format sarif    # SARIF 2.1.0
    python -m repro.analysis --flow --report out.json # JSON report to a file
                                                      # (CI artifact), any
                                                      # --format on stdout
    python -m repro.analysis --flow --write-baseline  # accept current findings
    python -m repro.analysis --flow --prune-baseline  # drop stale entries
    python -m repro.analysis --flow --list-rules      # rule catalog

Exit status is 0 when clean, 1 with findings (artifact errors, or new
flowcheck findings not covered by the baseline), 2 on usage/baseline
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .artifact import KINDS, verify_artifact
from .diagnostics import Severity
from .flowcheck import (
    DEFAULT_BASELINE,
    BaselineError,
    apply_baseline,
    check_paths,
    load_baseline,
    prune_baseline,
    rule_catalog,
    save_baseline,
    to_sarif,
)

_JSON_SCHEMA_VERSION = 1

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
        "--format", choices=("human", "json", "sarif"), default="",
        dest="output_format",
        help="stdout format for findings (default: human)",
    )
    flow.add_argument(
        "--json", action="store_true", dest="as_json",
        help="alias for --format json",
    )
    flow.add_argument(
        "--report", default="", metavar="FILE",
        help="also write the JSON report to FILE (for CI artifacts), "
        "independent of --format",
    )
    flow.add_argument(
        "--baseline", default="",
        help=f"baseline file (default: {DEFAULT_BASELINE} when present)",
    )
    flow.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file",
    )
    flow.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    flow.add_argument(
        "--prune-baseline", action="store_true",
        help="rewrite the baseline file without stale entries "
        "(justifications of live entries are preserved)",
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
    output_format = args.output_format or ("json" if args.as_json else "human")
    targets = args.targets or _default_flow_targets()
    result = check_paths(targets)
    findings = result.sorted_findings()

    baseline_path = Path(args.baseline or DEFAULT_BASELINE)
    if args.write_baseline:
        save_baseline(baseline_path, findings)
        print(
            f"flowcheck: wrote {len(findings)} finding(s) to {baseline_path}",
            file=sys.stderr,
        )
        return 0

    entries: List[dict] = []
    if not args.no_baseline and baseline_path.is_file():
        try:
            entries = load_baseline(baseline_path)
        except BaselineError as exc:
            print(f"flowcheck: {exc}", file=sys.stderr)
            return 2
    fresh, baselined, stale = apply_baseline(findings, entries)

    if args.prune_baseline and stale:
        kept, pruned = prune_baseline(baseline_path, findings)
        print(
            f"flowcheck: pruned {pruned} stale baseline entr"
            f"{'y' if pruned == 1 else 'ies'} from {baseline_path} "
            f"({kept} kept)",
            file=sys.stderr,
        )
        stale = []

    payload = {
        "version": _JSON_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "findings": [finding.to_json() for finding in fresh],
        "baselined": len(baselined),
        "suppressed": result.suppressed,
        "stale_baseline_entries": len(stale),
    }
    if args.report:
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")

    if output_format == "json":
        print(json.dumps(payload, indent=2))
    elif output_format == "sarif":
        print(json.dumps(to_sarif(fresh), indent=2))
    else:
        for finding in fresh:
            print(finding.format())
        for entry in stale:
            print(
                f"flowcheck: stale baseline entry (fixed? run "
                f"--prune-baseline to drop it): "
                f"[{entry['rule']}] {entry['path']}: {entry['message']}",
                file=sys.stderr,
            )
    if stale:
        print(
            f"flowcheck: baseline is stale ({len(stale)} entr"
            f"{'y' if len(stale) == 1 else 'ies'} no longer match); "
            f"run with --prune-baseline to clean it up",
            file=sys.stderr,
        )
    summary = (
        f"flowcheck: {result.files_checked} file(s), {len(fresh)} new "
        f"finding(s), {len(baselined)} baselined, {result.suppressed} "
        f"suppressed"
    )
    print(summary, file=sys.stderr)
    return 1 if fresh else 0


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
