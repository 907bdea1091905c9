"""Outside-in layer trace: wrap public functions, record spans in memory.

Each hook replaces one public function at the attribute its caller looks
up (a module global such as ``repro.search.tree.apply_compression_plan``,
or a method on its class) with a wrapper that records a span: layer name,
start, end, parent span and the benchmark unit it ran in. Nothing
under ``src/`` changes; :meth:`LayerTracer.restore` puts every original
object back.

A call into a layer from inside the same layer (``LossyChannel.attempt``
calling ``transfer_time_ms``) is part of the outer span: it is neither
counted nor given a span of its own, so ``calls`` counts entries into a
layer from outside it.

Self time is a span's duration minus the time its child spans cover, so
the self times of all layers plus the benchmark's own per-unit root span
add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The benchmark's own root span, one per timed unit. Its self time is the
#: time no hooked layer accounts for.
ROOT = "bench.unit"


def _rows(args: tuple, kwargs: dict) -> int:
    """Rows in one controller batch: the ``bandwidths_mbps`` argument."""
    return len(args[2] if len(args) > 2 else kwargs["bandwidths_mbps"])


def _memo_stats(obj: Any) -> Any:
    return obj.stats


def _context_stats(obj: Any) -> Any:
    return obj.memo_stats()


@dataclass(frozen=True, repr=False)
class Hook:
    """One wrapped attribute: ``module[.owner].attr`` reported as ``layer``."""

    layer: str
    module: str
    attr: str
    owner: Optional[str] = None
    #: Counts rows of work per call (controller batch width).
    rows: Optional[Callable[[tuple, dict], int]] = None
    #: Reads a ``MemoStats`` from the call's ``self`` for hit rates.
    stats: Optional[Callable[[Any], Any]] = None

    def target(self) -> Any:
        """The module or class whose attribute is wrapped."""
        module = importlib.import_module(self.module)
        return getattr(module, self.owner) if self.owner else module

    def current(self) -> Any:
        """The object the attribute holds right now."""
        target = self.target()
        return vars(target)[self.attr] if self.owner else getattr(target, self.attr)

    def __repr__(self) -> str:
        owner = f"{self.owner}." if self.owner else ""
        return f"{self.module}.{owner}{self.attr}"


#: Layer → hooked attributes. Functions imported into a caller's module
#: are hooked there, because that is the name the caller looks up.
HOOKS: Tuple[Hook, ...] = (
    Hook("rl.update", "repro.rl.reinforce", "update_episode", "ReinforceTrainer"),
    Hook("rl.forward", "repro.rl.controller", "sample_batch", "PartitionController", _rows),
    Hook("rl.forward", "repro.rl.controller", "sample_batch", "CompressionController", _rows),
    Hook("model.fingerprint", "repro.model.spec", "compute_fingerprint"),
    Hook("model.slice_concat", "repro.model.spec", "slice", "ModelSpec"),
    Hook("model.slice_concat", "repro.model.spec", "concatenate", "ModelSpec"),
    Hook("search.compose", "repro.search.composer", "concat", "SpecComposer", stats=_memo_stats),
    Hook("search.apply_plan", "repro.search.tree", "apply_compression_plan"),
    Hook("search.apply_plan", "repro.search.branch", "apply_compression_plan"),
    Hook(
        "search.evaluate", "repro.search.context", "evaluate", "SearchContext",
        stats=_context_stats,
    ),
    Hook(
        "accuracy.evaluate", "repro.accuracy.base", "evaluate", "MemoizedEvaluator",
        stats=_memo_stats,
    ),
    Hook("latency.estimate", "repro.latency.compute", "estimate_composed", "LatencyEstimator"),
    Hook("latency.device_model", "repro.latency.devices", "model_latency_ms", "DeviceProfile"),
    Hook("search.tree", "repro.experiments.common", "model_tree_search"),
    Hook("search.tree", "repro.search.tree", "model_tree_search"),
    Hook("search.branch", "repro.experiments.common", "optimal_branch_search"),
    Hook("search.branch", "repro.search.tree", "optimal_branch_search"),
    Hook("search.surgery", "repro.experiments.common", "dynamic_dnn_surgery"),
    Hook("runtime.execute", "repro.runtime.engine", "execute", "TreePlan"),
    Hook("runtime.execute", "repro.runtime.engine", "execute", "FixedPlan"),
    Hook("runtime.probe", "repro.runtime.engine", "probe_bandwidth", "RuntimeEnvironment"),
    Hook("runtime.offload", "repro.runtime.engine", "resolve_offload"),
    Hook("network.transfer", "repro.network.channel", "transfer_time_ms", "Channel"),
    Hook("network.transfer", "repro.network.channel", "attempt", "Channel"),
    Hook("network.transfer", "repro.network.channel", "transfer_time_ms", "LossyChannel"),
    Hook("network.transfer", "repro.network.channel", "attempt", "LossyChannel"),
    Hook("session.infer", "repro.runtime.session", "infer", "InferenceSession"),
    Hook("emulator.run", "repro.experiments.common", "run_emulation"),
    Hook("emulator.run", "repro.runtime.emulator", "run_emulation"),
    Hook("obs.slo", "repro.obs.slo", "observe", "BurnRateEvaluator"),
)

#: Every hooked layer, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(hook.layer for hook in HOOKS))
#: Layers whose wrapped ``self`` carries a memo pool (hit rate reported).
HIT_RATE_LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(hook.layer for hook in HOOKS if hook.stats is not None)
)


class LayerTracer:
    """Installs the hooks, records spans, and aggregates them per layer."""

    def __init__(self) -> None:
        self.names: List[str] = [ROOT, *LAYERS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        # Span columns; parent -1 is a root span.
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.rows = [0] * len(self.names)
        self._stack: List[List[Any]] = []  # [span index, name id, child seconds]
        self._current_unit = -1
        #: id(obj) -> (hook, obj, stats when first seen); the strong
        #: reference keeps ids unique until the trace ends.
        self._instances: Dict[int, Tuple[Hook, Any, Any]] = {}
        self._saved: List[Tuple[Hook, Any, Any]] = []

    # -- spans ---------------------------------------------------------------
    def _open(self, name_id: int) -> List[Any]:
        stack = self._stack
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(stack[-1][0] if stack else -1)
        self.unit.append(self._current_unit)
        self.end.append(0.0)
        frame = [index, name_id, 0.0]
        stack.append(frame)
        self.start.append(time.perf_counter())
        return frame

    def _close(self, frame: List[Any]) -> None:
        now = time.perf_counter()
        index, name_id, child_s = frame
        self._stack.pop()
        self.end[index] = now
        duration = now - self.start[index]
        self.self_s[name_id] += duration - child_s
        self.calls[name_id] += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def unit_span(self, unit: int) -> Iterator[None]:
        """The benchmark's root span around one timed unit."""
        self._current_unit = unit
        frame = self._open(self._ids[ROOT])
        try:
            yield
        finally:
            self._close(frame)

    # -- hooks ---------------------------------------------------------------
    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        name_id = self._ids[hook.layer]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][1] == name_id:
                return fn(*args, **kwargs)
            if hook.rows is not None:
                tracer.rows[name_id] += hook.rows(args, kwargs)
            if hook.stats is not None and id(args[0]) not in tracer._instances:
                tracer._instances[id(args[0])] = (hook, args[0], hook.stats(args[0]))
            frame = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        return wrapper

    def install(self) -> None:
        for hook in HOOKS:
            target, original = hook.target(), hook.current()
            setattr(target, hook.attr, self._wrap(hook, original))
            self._saved.append((hook, target, original))

    def restore(self) -> None:
        """Put every original object back, in reverse install order."""
        while self._saved:
            hook, target, original = self._saved.pop()
            setattr(target, hook.attr, original)

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- aggregation -----------------------------------------------------------
    def wall_s(self) -> float:
        """Traced wall time: the summed durations of the root spans."""
        root = self._ids[ROOT]
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name[i] == root
        )

    def hit_rates(self) -> Dict[str, float]:
        """Memo hit rate per layer over the lookups made while tracing."""
        hits = {layer: 0 for layer in HIT_RATE_LAYERS}
        lookups = {layer: 0 for layer in HIT_RATE_LAYERS}
        for hook, obj, before in self._instances.values():
            after = hook.stats(obj)
            hits[hook.layer] += after.hits - before.hits
            lookups[hook.layer] += after.lookups - before.lookups
        return {
            layer: hits[layer] / lookups[layer] if lookups[layer] else 0.0
            for layer in HIT_RATE_LAYERS
        }

    def layer_table(self, units: int) -> Dict[str, Dict[str, float]]:
        """Per layer: calls and self ms per unit, share of wall time."""
        wall = self.wall_s()
        table = {}
        for name_id, name in enumerate(self.names):
            calls = self.calls[name_id] if name != ROOT else 0
            table[name] = {
                "calls": calls / units,
                "self_ms": self.self_s[name_id] * 1e3 / units,
                "share": self.self_s[name_id] / wall if wall > 0 else 0.0,
                "rows_per_call": self.rows[name_id] / calls if calls else 0.0,
            }
        return table

    def to_jsonl(self) -> str:
        """Spans in ``repro.obs.TraceRecorder``'s record shape, one per line.

        One trace per unit; times are milliseconds from the first span.
        """
        origin = self.start[0] if len(self.start) else 0.0
        lines = []
        for i in range(len(self.start)):
            parent = self.parent[i]
            lines.append(
                json.dumps(
                    {
                        "kind": "span",
                        "name": self.names[self.name[i]],
                        "trace": f"t{self.unit[i]}",
                        "span": f"s{i}",
                        "parent": f"s{parent}" if parent >= 0 else None,
                        "t_ms": round((self.start[i] - origin) * 1e3, 4),
                        "dur_ms": round((self.end[i] - self.start[i]) * 1e3, 4),
                        "fields": {"unit": self.unit[i]},
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")
