"""Flowcheck rule registry.

Four plugin shapes:

- **flow rules** implement ``flow_hooks(module, function, report)`` and get
  driven by the dataflow interpreter once per function;
- **module rules** implement ``check(module, report)`` and walk the module
  themselves (no path sensitivity needed);
- **project rules** implement ``check(project, module, report)`` and get the
  cross-module :class:`~repro.analysis.flowcheck.project.ProjectIndex`
  (function summaries, call graph, worker-bound reachability) alongside
  the module being reported on;
- **cfg rules** implement ``check(project, module, function, cfg, report)``
  and run once per function with its exception-aware control-flow graph
  (see :mod:`repro.analysis.flowcheck.cfg`), typically via a typestate
  machine (:mod:`repro.analysis.flowcheck.typestate`).

``report(rule_id, node_or_line, message, hint=..., severity=...)`` is
provided by the engine and handles location bookkeeping and suppression.
Every rule has a stable id — renaming one invalidates inline pragmas, so
don't.
"""

from __future__ import annotations

from typing import Dict, List

from .aliasing import TensorAliasRule
from .clock import MonotonicClockRule
from .concurrency import SharedMutableRule, WorkerRngRule
from .contracts import BoundaryContractRule
from .exceptions import BreakerProtocolRule, SwallowedFaultRule
from .legacy import LegacyRule
from .numeric import DivGuardRule, FloatEqRule, MathDomainRule
from .printcall import PrintCallRule
from .resources import SinkFlushRule, SpanLeakRule
from .rng import RngDisciplineRule
from .units import UnitFlowRule

#: Rules driven by the per-function dataflow interpreter.
FLOW_RULES = [DivGuardRule(), FloatEqRule(), MathDomainRule()]

#: Rules that walk each module directly.
MODULE_RULES = [
    RngDisciplineRule(),
    TensorAliasRule(),
    BoundaryContractRule(),
    PrintCallRule(),
    MonotonicClockRule(),
    LegacyRule(),
]

#: Interprocedural rules driven with the cross-module project index.
PROJECT_RULES = [
    UnitFlowRule(),
    SharedMutableRule(),
    WorkerRngRule(),
    SwallowedFaultRule(),
]

#: Typestate rules driven once per function over its exception-aware CFG.
CFG_RULES = [
    SpanLeakRule(),
    SinkFlushRule(),
    BreakerProtocolRule(),
]


def rule_catalog() -> Dict[str, str]:
    """Stable rule id -> one-line summary, for ``--list-rules`` and docs."""
    catalog: Dict[str, str] = {}
    for rule in [*FLOW_RULES, *MODULE_RULES, *PROJECT_RULES, *CFG_RULES]:
        for rule_id, summary in rule.catalog().items():
            catalog[rule_id] = summary
    return dict(sorted(catalog.items()))


def all_rule_ids() -> List[str]:
    return list(rule_catalog())
