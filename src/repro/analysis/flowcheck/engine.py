"""The flowcheck engine — orchestrates the passes over a file set.

Interprocedural shape: first *every* file is parsed and symbolized
(pass 0 pragmas, pass 1 symbol tables), then the cross-module
:class:`~repro.analysis.flowcheck.project.ProjectIndex` is built over
the whole file set (pass 1.5: function summaries, unit inference, call
graph, worker-bound reachability, fault-reaching closure), and only
then do the per-module passes run — module rules (pass 2), the dataflow
interpreter with every flow rule's hooks multiplexed (pass 3), the
typestate rules over one exception-aware CFG per function (pass 3.5),
and the project rules with the index in hand (pass 4). Findings
suppressed by an inline pragma are dropped (and counted) at report time.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Union

from ..diagnostics import Severity
from .cfg import build_cfg
from .core import Finding, ModuleInfo, make_finding
from .dataflow import FlowHooks, FunctionFlow
from .project import ProjectIndex
from .rules import CFG_RULES, FLOW_RULES, MODULE_RULES, PROJECT_RULES
from .suppress import collect_suppressions, is_suppressed

PathLike = Union[str, Path]


def iter_python_files(paths: Iterable[PathLike]) -> List[Path]:
    """Every ``.py`` file under ``paths`` (files or directories), sorted
    within each directory."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


@dataclass
class CheckResult:
    """Outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    def sorted_findings(self) -> List[Finding]:
        return sorted(
            self.findings, key=lambda f: (f.path, f.line, f.rule)
        )


class _Reporter:
    """Per-module report() closure handed to every rule."""

    def __init__(self, module: ModuleInfo, result: CheckResult) -> None:
        self.module = module
        self.result = result

    def __call__(
        self,
        rule: str,
        where: Union[ast.AST, int],
        message: str,
        hint: Optional[str] = None,
        severity: Severity = Severity.ERROR,
    ) -> None:
        line = where if isinstance(where, int) else getattr(where, "lineno", 0)
        if is_suppressed(self.module.suppressions, line, rule):
            self.result.suppressed += 1
            return
        self.result.findings.append(
            make_finding(rule, self.module.path, line, message, hint, severity)
        )


def _merge_hooks(hooks: List[FlowHooks]) -> FlowHooks:
    divisions = [h.on_division for h in hooks if h.on_division]
    compares = [h.on_compare for h in hooks if h.on_compare]
    calls = [h.on_call for h in hooks if h.on_call]

    def fan_out(callbacks):
        def dispatch(*args):
            for callback in callbacks:
                callback(*args)

        return dispatch if callbacks else None

    return FlowHooks(
        on_division=fan_out(divisions),
        on_compare=fan_out(compares),
        on_call=fan_out(calls),
    )


def check_source(source: str, path: str = "<string>") -> CheckResult:
    """Run every pass on one source string (a one-module project)."""
    result = CheckResult(files_checked=1)
    module = _parse_module(source, path, result)
    if module is not None:
        project = ProjectIndex([module])
        _run_module(module, project, result)
    result.findings = result.sorted_findings()
    return result


def _parse_module(
    source: str, path: str, result: CheckResult
) -> Optional[ModuleInfo]:
    """Pass 0 + 1 for one file; records a syntax Finding on failure."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        result.findings.append(
            make_finding(
                "syntax", path, exc.lineno or 0, f"cannot parse: {exc.msg}"
            )
        )
        return None
    module = ModuleInfo(
        path=path,
        source=source,
        tree=tree,
        suppressions=collect_suppressions(source),
    )
    from .symbols import build_symbols  # local import to keep module DAG flat

    return build_symbols(module)


def _run_module(
    module: ModuleInfo, project: ProjectIndex, result: CheckResult
) -> None:
    """Passes 2-4 on one parsed module."""
    reporter = _Reporter(module, result)
    for rule in MODULE_RULES:
        rule.check(module, reporter)
    for function in module.functions:
        hooks = _merge_hooks(
            [
                rule.flow_hooks(module, function, reporter)
                for rule in FLOW_RULES
            ]
        )
        if hooks.on_division or hooks.on_compare or hooks.on_call:
            FunctionFlow(module, function, hooks).run()
    # Pass 3.5: one exception-aware CFG per function, shared by every
    # typestate rule (construction dominates, the fixed points are cheap).
    if CFG_RULES:
        for function in module.functions:
            cfg = build_cfg(function)
            for rule in CFG_RULES:
                rule.check(project, module, function, cfg, reporter)
    for rule in PROJECT_RULES:
        rule.check(project, module, reporter)


def check_paths(paths: Iterable[PathLike]) -> CheckResult:
    """Run the engine over every ``.py`` file under ``paths``.

    All files are parsed up front so the project index sees the whole
    set before any rule runs — cross-module call resolution is only as
    complete as the path set handed in.
    """
    files = [str(file) for file in iter_python_files(paths)]
    result = CheckResult(files_checked=len(files))
    modules: List[ModuleInfo] = []
    for file in files:
        module = _parse_module(Path(file).read_text(), file, result)
        if module is not None:
            modules.append(module)
    project = ProjectIndex(modules)
    for module in modules:
        _run_module(module, project, result)
    result.findings = result.sorted_findings()
    return result
