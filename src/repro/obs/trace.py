"""Structured trace events with propagated trace/span ids.

The paper's contribution is *context-dependent* behavior — which fork
Alg. 2 follows at which bandwidth, when a retry or breaker transition
degrades a request — and aggregate counters cannot answer "which request
hit which fork under which bandwidth". A :class:`TraceRecorder` records a
tree of **spans** (timed regions: one trace per ``run_scenario`` or
:class:`~repro.runtime.session.InferenceSession`, child spans per search
episode / emulator request) and point **events** (controller updates,
retries, breaker transitions) that attach to the innermost open span, so
offline analysis can reconstruct exactly what happened to every request.

Design constraints, in priority order:

- **cheap when disabled** — the default recorder is disabled; ``event()``
  returns after one attribute check and :func:`span` still times into
  the perf registry, about 1.0–1.3 µs per span;
- **imports only** :mod:`repro.perf` — any other layer may depend on
  this module without cycles;
- **deterministic ids** — span/trace ids are monotonically increasing
  counters, never random, so identical seeded runs produce identical
  traces (timestamps aside);
- **monotonic clock** — timestamps are ``time.perf_counter()`` offsets
  from the recorder's creation, never wall clock (see the flowcheck
  ``monotonic-clock`` rule).

One JSONL line per record::

    {"kind": "span", "name": "emulator.request", "trace": "t1",
     "span": "s7", "parent": "s1", "t_ms": 12.1, "dur_ms": 0.9,
     "fields": {"fork_path": [1, 0], "offloaded": true, ...}}
    {"kind": "event", "name": "offload.retry", "trace": "t1",
     "span": "s7", "t_ms": 12.4, "fields": {"attempt": 1}}

Span records are emitted when the span *closes*, so children precede
their parents in the file; readers rebuild the tree from ``parent``. A
span whose body raised carries an ``"error"`` field (the exception type
name) — exception paths are the interesting paths in a resilience run,
and a trace that cannot tell a clean request from a crashed one hides
exactly what it exists to show.

By default records buffer in memory and are written on ``recording()``
exit. Pass ``stream=True`` (or a :class:`~repro.obs.sink.JsonlSink` via
``sink=``) to make each record durable the moment it is produced — a
run killed mid-flight still leaves every closed span on disk.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from ..perf.registry import get_registry
from .sink import JsonlSink

PathLike = Union[str, Path]


def _jsonable(value: Any) -> Any:
    """Coerce a field value into something ``json.dumps`` accepts.

    Tuples become lists; numpy scalars (or anything with ``item()``)
    become their Python value; everything else unknown becomes ``str``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _jsonable(item())
        except (TypeError, ValueError):
            pass
    return str(value)


class TraceSpan:
    """Handle of one open span; ``add()`` attaches fields before close."""

    __slots__ = ("name", "span_id", "parent_id", "trace_id", "start_ms", "fields")

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: Optional[str],
        trace_id: str,
        start_ms: float,
        fields: Dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.start_ms = start_ms
        self.fields = fields

    def add(self, **fields: Any) -> None:
        """Attach more fields (e.g. the outcome, known only at the end)."""
        self.fields.update(fields)


class _NullSpan:
    """Shared inert span handle returned while recording is disabled."""

    __slots__ = ()

    def add(self, **fields: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class TraceRecorder:
    """Records a span tree plus point events; exports JSONL.

    A ``span()`` opened with no enclosing span starts a **new trace** (a
    fresh trace id) — one trace per scenario run or inference session.
    ``event()`` attaches to the innermost open span. The recorder is
    single-threaded by design (the whole repo is); spans nest as a stack.
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
        sink: Optional[JsonlSink] = None,
    ) -> None:
        self.enabled = enabled
        self._clock = clock
        self._origin = clock()
        self.records: List[Dict[str, Any]] = []
        #: Optional streaming sink: every record is also written (and
        #: flushed) the moment it is produced — crash-safe tracing. Any
        #: object with ``write(record_dict)`` works.
        self.sink = sink
        self._stack: List[TraceSpan] = []
        self._next_span = 0
        self._next_trace = 0
        self._trace_id: Optional[str] = None

    # -- time & ids --------------------------------------------------------
    def _now_ms(self) -> float:
        return (self._clock() - self._origin) * 1e3

    def _new_span_id(self) -> str:
        self._next_span += 1
        return f"s{self._next_span}"

    def _new_trace_id(self) -> str:
        self._next_trace += 1
        return f"t{self._next_trace}"

    # -- recording ---------------------------------------------------------
    @contextmanager
    def span(
        self, name: str, **fields: Any
    ) -> Iterator[Union[TraceSpan, _NullSpan]]:
        """Time a region as one span; yields a handle for late fields."""
        if not self.enabled:
            yield _NULL_SPAN
            return
        if not self._stack:
            self._trace_id = self._new_trace_id()
        assert self._trace_id is not None
        handle = TraceSpan(
            name=name,
            span_id=self._new_span_id(),
            parent_id=self._stack[-1].span_id if self._stack else None,
            trace_id=self._trace_id,
            start_ms=self._now_ms(),
            fields=dict(fields),
        )
        self._stack.append(handle)
        try:
            yield handle
        finally:
            self._stack.pop()
            record = {
                "kind": "span",
                "name": handle.name,
                "trace": handle.trace_id,
                "span": handle.span_id,
                "parent": handle.parent_id,
                "t_ms": round(handle.start_ms, 4),
                "dur_ms": round(self._now_ms() - handle.start_ms, 4),
                "fields": {
                    k: _jsonable(v) for k, v in handle.fields.items()
                },
            }
            # A raising body marks its span: exception paths are the
            # ones a resilience trace exists to explain.
            exc_type = sys.exc_info()[0]
            if exc_type is not None:
                record["error"] = exc_type.__name__
            self._emit(record)

    def event(self, name: str, **fields: Any) -> None:
        """Record a point event attached to the innermost open span."""
        if not self.enabled:
            return
        current = self._stack[-1] if self._stack else None
        self._emit(
            {
                "kind": "event",
                "name": name,
                "trace": current.trace_id if current else self._trace_id,
                "span": current.span_id if current else None,
                "t_ms": round(self._now_ms(), 4),
                "fields": {k: _jsonable(v) for k, v in fields.items()},
            }
        )

    def _emit(self, record: Dict[str, Any]) -> None:
        self.records.append(record)
        if self.sink is not None:
            self.sink.write(record)

    # -- export ------------------------------------------------------------
    def to_jsonl(self) -> str:
        """All records so far, one JSON object per line."""
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records)

    def dump_jsonl(self, path: PathLike) -> None:
        """Write the trace as a JSONL file (trailing newline included)."""
        text = self.to_jsonl()
        Path(path).write_text(text + "\n" if text else "")

    def clear(self) -> None:
        """Drop recorded events (open spans keep nesting correctly)."""
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)


#: Process-wide default recorder — disabled, so hot paths skip the trace
#: until a caller opts in via ``recording()`` / ``set_recorder()``.
_DEFAULT_RECORDER = TraceRecorder(enabled=False)


class span:
    """The one span API: ``with span(name, **fields) as handle:``.

    Times the block into ``get_registry().record_span`` (even when it
    raises) and, while the default recorder is enabled, records it as a
    :meth:`TraceRecorder.span` — ``handle`` is then that span's
    :class:`TraceSpan`, otherwise the shared inert handle.
    """

    __slots__ = ("_name", "_fields", "_trace", "_start")

    def __init__(self, name: str, **fields: Any) -> None:
        self._name = name
        self._fields = fields

    def __enter__(self) -> Union[TraceSpan, _NullSpan]:
        handle: Union[TraceSpan, _NullSpan] = _NULL_SPAN
        self._trace = None
        if _DEFAULT_RECORDER.enabled:
            self._trace = _DEFAULT_RECORDER.span(self._name, **self._fields)
            handle = self._trace.__enter__()
        self._start = time.perf_counter()
        return handle

    def __exit__(self, *exc: Any) -> Optional[bool]:
        elapsed_ms = (time.perf_counter() - self._start) * 1e3
        get_registry().record_span(self._name, elapsed_ms)
        return None if self._trace is None else self._trace.__exit__(*exc)


def get_recorder() -> TraceRecorder:
    """The process-wide default recorder."""
    return _DEFAULT_RECORDER


def set_recorder(recorder: TraceRecorder) -> TraceRecorder:
    """Swap the default recorder; returns the previous one."""
    global _DEFAULT_RECORDER
    previous = _DEFAULT_RECORDER
    _DEFAULT_RECORDER = recorder
    return previous


@contextmanager
def recording(
    path: Optional[PathLike] = None, stream: bool = False
) -> Iterator[TraceRecorder]:
    """Enable tracing for the block; optionally dump JSONL on exit.

    Swaps a fresh enabled recorder in as the process default and restores
    the previous recorder afterwards (even on error). With ``path`` the
    trace is written on exit no matter how the block ends; with
    ``stream=True`` as well, records go through a flushed
    :class:`~repro.obs.sink.JsonlSink` the moment they close, so even a
    run killed outright (no ``finally`` runs) leaves every completed
    record on disk.
    """
    if stream and path is None:
        raise ValueError("recording(stream=True) needs a path to stream to")
    sink = JsonlSink(path) if stream and path is not None else None
    recorder = TraceRecorder(enabled=True, sink=sink)
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
        if sink is not None:
            sink.close()
        elif path is not None:
            recorder.dump_jsonl(path)
