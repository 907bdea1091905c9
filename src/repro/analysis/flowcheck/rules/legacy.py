"""The flat AST rules flowcheck grew out of.

``mutable-default`` and ``bare-except`` walk the already-parsed module
tree; ``syntax`` is catalogued here but reported by the engine itself
when a file does not parse. Module-level global-RNG calls are covered
by ``ambient-rng``/``unseeded-generator`` at every scope.
"""

from __future__ import annotations

import ast
from typing import Dict

from ..core import ModuleInfo

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_MUTABLE_CALLS = frozenset({"list", "dict", "set"})


def _is_mutable(default: ast.expr) -> bool:
    if isinstance(default, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(default, ast.Call)
        and isinstance(default.func, ast.Name)
        and default.func.id in _MUTABLE_CALLS
        and not default.args
        and not default.keywords
    )


class LegacyRule:
    ids = ("bare-except", "mutable-default", "syntax")

    def catalog(self) -> Dict[str, str]:
        return {
            "mutable-default": "mutable default argument shared across calls",
            "bare-except": "bare except: swallows KeyboardInterrupt/SystemExit",
            "syntax": "file does not parse",
        }

    def check(self, module: ModuleInfo, report) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, _FUNCTIONS):
                args = node.args
                for default in [*args.defaults, *args.kw_defaults]:
                    if default is not None and _is_mutable(default):
                        report(
                            "mutable-default",
                            default,
                            "mutable default argument is shared across "
                            "calls; use None and create it in the body",
                        )
            elif isinstance(node, ast.ExceptHandler) and node.type is None:
                report(
                    "bare-except",
                    node,
                    "bare 'except:' swallows KeyboardInterrupt/SystemExit; "
                    "name the exception type",
                )
