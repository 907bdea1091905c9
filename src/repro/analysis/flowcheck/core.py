"""Core data model of the flowcheck engine.

Flowcheck is a multi-pass static analyzer over the ``src/repro`` package:

- **pass 0** parses every file and records inline suppression pragmas;
- **pass 1** builds a per-module symbol table (import aliases, module-level
  constants, a function index with enclosing-class qualnames);
- **pass 2** runs the module rules, which walk the parsed tree directly;
- **pass 3** runs the dataflow rules function-by-function on top of the
  guard-tracking interpreter in :mod:`repro.analysis.flowcheck.dataflow`.

Rules emit the repo's existing :class:`~repro.analysis.diagnostics.Diagnostic`
type; :class:`Finding` wraps one with its structured path/line so the engine
can apply suppressions and render JSON without re-parsing location
strings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..diagnostics import Diagnostic, Severity


@dataclass(frozen=True)
class Finding:
    """One flowcheck finding: a Diagnostic plus its structured location."""

    diagnostic: Diagnostic
    path: str
    line: int

    @property
    def rule(self) -> str:
        return self.diagnostic.rule

    @property
    def severity(self) -> Severity:
        return self.diagnostic.severity

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "message": self.diagnostic.message,
            "hint": self.diagnostic.hint,
        }

    def format(self) -> str:
        return self.diagnostic.format()


def make_finding(
    rule: str,
    path: str,
    line: int,
    message: str,
    hint: Optional[str] = None,
    severity: Severity = Severity.ERROR,
) -> Finding:
    """Build a Finding whose Diagnostic location is ``path:line``."""
    return Finding(
        Diagnostic(rule, severity, f"{path}:{line}", message, hint), path, line
    )


@dataclass
class FunctionInfo:
    """One function or method collected by the symbol pass."""

    node: ast.AST  # FunctionDef | AsyncFunctionDef
    qualname: str
    class_name: Optional[str]  # enclosing class, None for module-level
    is_nested: bool  # defined inside another function

    @property
    def name(self) -> str:
        return self.node.name  # type: ignore[attr-defined]

    @property
    def is_public(self) -> bool:
        if self.name.startswith("_") and not self.name == "__init__":
            return False
        if self.class_name and self.class_name.startswith("_"):
            return False
        return True

    def params(self) -> List[ast.arg]:
        args = self.node.args  # type: ignore[attr-defined]
        return list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)

    def param_names(self) -> List[str]:
        return [a.arg for a in self.params()]


@dataclass
class ModuleInfo:
    """Everything the rule passes need to know about one source file."""

    path: str  # as given on the command line (repo-relative in CI)
    source: str
    tree: ast.Module
    #: local name -> fully qualified module/object it refers to, e.g.
    #: ``np -> numpy``, ``default_rng -> numpy.random.default_rng``.
    imports: Dict[str, str] = field(default_factory=dict)
    #: module-level names bound to numeric constants (value recorded).
    constants: Dict[str, float] = field(default_factory=dict)
    functions: List[FunctionInfo] = field(default_factory=list)
    #: line -> set of suppressed rule ids (lowercased).
    suppressions: Dict[int, frozenset] = field(default_factory=dict)

    @property
    def package_parts(self) -> Tuple[str, ...]:
        """Path components below ``repro`` (for package-scoped rules).

        The package root is the deepest ``repro`` directory on the path,
        so a checkout that is itself named ``repro`` still finds it. A
        file outside the package keeps its whole path.
        """
        parts = Path(self.path).parts
        dirs = parts[:-1]
        if "repro" in dirs:
            return parts[len(dirs) - dirs[::-1].index("repro") :]
        return parts

    @property
    def dotted_name(self) -> str:
        """Importable dotted module name, best-effort from the path.

        ``src/repro/latency/transfer.py`` -> ``repro.latency.transfer``;
        an ``__init__.py`` names its package. Files outside the ``repro``
        tree (benchmarks, examples, fixtures) get ``<parent>.<stem>`` so
        local-call resolution still has a stable, mostly-unique prefix.
        """
        parts = list(Path(self.path).parts)
        if parts and parts[-1].endswith(".py"):
            stem = parts[-1][: -len(".py")]
            parts = parts[:-1] if stem == "__init__" else parts[:-1] + [stem]
        if "repro" in parts:
            return ".".join(parts[parts.index("repro") :])
        return ".".join(parts[-2:]) if len(parts) >= 2 else ".".join(parts)

    @property
    def basename(self) -> str:
        return Path(self.path).name

    def in_package(self, *names: str) -> bool:
        """True when the module lives under repro/<name>/ for any name."""
        parts = self.package_parts
        return bool(parts) and parts[0] in names

    def under_directory(self, *names: str) -> bool:
        """True when a directory named one of ``names`` holds the module:
        anywhere on the path of a file outside the ``repro`` package, below
        the package root for one inside it. Unlike :meth:`in_package` this
        holds for absolute and relative paths alike."""
        return any(part in names for part in self.package_parts[:-1])

    def resolve(self, node: ast.expr) -> str:
        """Fully qualified dotted name of an expression, '' when unknown.

        ``np.random.rand`` resolves through the import table to
        ``numpy.random.rand``; a bare ``default_rng`` imported from
        ``numpy.random`` resolves to ``numpy.random.default_rng``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return ""
        head = self.imports.get(node.id, node.id)
        parts.append(head)
        return ".".join(reversed(parts))
