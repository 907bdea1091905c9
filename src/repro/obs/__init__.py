"""Observability layer: structured traces, windowed metrics and SLOs.

Layered on top of :mod:`repro.perf`: the :class:`TraceRecorder` captures a
span tree (one trace per scenario run / inference session, child spans per
search episode and emulator request) plus point events (controller
updates, retries, breaker transitions, SLO alerts);
:mod:`repro.obs.window` keeps sliding-window histograms/counters keyed on
*simulated* time; :mod:`repro.obs.slo` turns a latency objective into a
multi-window burn-rate alert; and ``python -m repro.obs`` (also
``repro obs``) ships two subcommands — ``report`` summarizes recorded
traces (files or per-task directories) into phase timings, per-fork
request counts, RL learning curves, windowed latency and a resilience
timeline, and ``diff`` compares two runs' artifacts with regression
verdicts.

Every timed region opens one :func:`span` (perf registry + trace).
Tracing is **off by default**; a span then only times into the registry,
about 1.0–1.3 µs per span (median of timeit runs of :func:`span` without
and with one field, Python 3.11 on 2 vCPUs). Enable it with::

    from repro.obs import recording

    with recording("trace.jsonl"):
        run_scenario(scenario)
"""

from .diff import DiffEntry, DiffReport, diff_artifacts, load_artifact
from .sink import JsonlSink
from .report import (
    RLCurve,
    SpanAgg,
    TraceSummary,
    expand_trace_paths,
    load_trace,
    parse_jsonl,
    render_report,
    summarize_paths,
    summarize_records,
    summarize_trace,
)
from .slo import (
    AlertEvent,
    BurnRateEvaluator,
    SLOPolicy,
    SLOStatus,
    make_burn_rate_breaker,
)
from .trace import (
    TraceRecorder,
    TraceSpan,
    get_recorder,
    recording,
    set_recorder,
    span,
)
from .window import (
    WindowedCounter,
    WindowedHistogram,
    merge_window_sections,
    merge_window_states,
)

__all__ = [
    "AlertEvent",
    "BurnRateEvaluator",
    "DiffEntry",
    "DiffReport",
    "JsonlSink",
    "RLCurve",
    "SLOPolicy",
    "SLOStatus",
    "SpanAgg",
    "TraceRecorder",
    "TraceSpan",
    "TraceSummary",
    "WindowedCounter",
    "WindowedHistogram",
    "diff_artifacts",
    "expand_trace_paths",
    "get_recorder",
    "load_artifact",
    "load_trace",
    "make_burn_rate_breaker",
    "merge_window_sections",
    "merge_window_states",
    "parse_jsonl",
    "recording",
    "render_report",
    "set_recorder",
    "span",
    "summarize_paths",
    "summarize_records",
    "summarize_trace",
]
