"""Offline trace analysis: turn a JSONL trace into a human-readable report.

``python -m repro.obs report trace.jsonl`` (or ``repro obs report``)
summarizes one recorded trace into the four views the search/runtime
debugging loop needs:

- **per-phase timings** — every span name aggregated (count / total /
  mean / max), so `scenario.tree` vs `tree.forward` vs `emulator.request`
  cost is one table;
- **per-fork request counts** — which tree path each emulated request
  actually took (and how its latency distributed), straight from the
  request spans' ``fork_path`` fields;
- **RL learning curves** — reward / baseline / advantage / entropy per
  controller update, with first-vs-last-quartile deltas so convergence
  (or collapse) is visible without plotting;
- **resilience timeline** — retries, breaker transitions, degraded-mode
  entries in time order, each tied to the request span it happened under.

Parsing is strict about shape but forgiving about content: a line that is
not valid JSON (or not a known record kind) is *counted* as unparsed and
reported, never silently dropped — the acceptance bar for a healthy trace
is zero unparsed lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..perf import HistogramStat
from .window import WindowedHistogram

PathLike = Union[str, Path]

#: Span names whose fields describe one runtime inference request.
REQUEST_SPANS = frozenset({"emulator.request", "session.infer"})

#: Point-event names that belong on the resilience timeline.
RESILIENCE_EVENTS = frozenset(
    {
        "offload.retry",
        "offload.fallback",
        "offload.degraded",
        "breaker.transition",
        "slo.alert",
    }
)

_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def spark(values: List[float], width: int = 40) -> str:
    """Tiny ASCII sparkline (resampled to ``width`` points).

    Downsampling always keeps both endpoints: the final value is the
    most recent observation, and a sparkline whose last glyph is some
    interior sample misreads as "where the curve ended".
    """
    if not values:
        return ""
    if len(values) > width:
        last = len(values) - 1
        if width == 1:
            values = [values[last]]
        else:
            values = [values[i * last // (width - 1)] for i in range(width)]
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_GLYPHS[0] * len(values)
    scale = (len(_SPARK_GLYPHS) - 1) / (hi - lo)
    return "".join(_SPARK_GLYPHS[int((v - lo) * scale)] for v in values)


@dataclass
class SpanAgg:
    """Aggregated timings of one span name across the trace."""

    count: int = 0
    total_ms: float = 0.0
    max_ms: float = 0.0

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0

    def fold(self, dur_ms: float) -> None:
        self.count += 1
        self.total_ms += dur_ms
        if dur_ms > self.max_ms:
            self.max_ms = dur_ms


@dataclass
class RLCurve:
    """One controller's update telemetry across the trace, in order."""

    rewards: List[float] = field(default_factory=list)
    baselines: List[float] = field(default_factory=list)
    advantages: List[float] = field(default_factory=list)
    entropies: List[float] = field(default_factory=list)

    @property
    def updates(self) -> int:
        return len(self.rewards)

    def quartile_means(self) -> Tuple[float, float]:
        """(mean of first quartile, mean of last quartile) of rewards."""
        n = len(self.rewards)
        if n == 0:
            return 0.0, 0.0
        q = max(1, n // 4)
        first = sum(self.rewards[:q]) / q
        last = sum(self.rewards[-q:]) / q
        return first, last


@dataclass
class TraceSummary:
    """Everything ``obs report`` extracts from one JSONL trace."""

    path: str
    records: int = 0
    spans: int = 0
    events: int = 0
    unparsed: int = 0
    traces: List[str] = field(default_factory=list)
    phases: Dict[str, SpanAgg] = field(default_factory=dict)
    fork_counts: Dict[str, int] = field(default_factory=dict)
    request_latency: HistogramStat = field(default_factory=HistogramStat)
    #: The same request latencies, windowed on simulated completion time
    #: (``start_sim_ms + latency_ms``) — p50/p90/p99 of the *most recent*
    #: window render next to the cumulative values.
    windowed_latency: WindowedHistogram = field(default_factory=WindowedHistogram)
    rl: Dict[str, RLCurve] = field(default_factory=dict)
    resilience: List[Dict[str, Any]] = field(default_factory=list)
    #: Burn-rate alert transitions (``slo.alert`` events), in time order.
    slo_alerts: List[Dict[str, Any]] = field(default_factory=list)
    #: cache name -> latest ``memo.stats`` event fields (hits/misses/…).
    caches: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: span-id -> record, for nesting checks and drill-down tooling.
    span_index: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def requests(self) -> int:
        return sum(self.fork_counts.values())

    def to_json_dict(self) -> Dict[str, Any]:
        """Machine-readable summary (the ``obs report --json`` output)."""
        return {
            "path": self.path,
            "records": self.records,
            "spans": self.spans,
            "events": self.events,
            "unparsed": self.unparsed,
            "traces": list(self.traces),
            "phases": {
                name: {
                    "count": agg.count,
                    "total_ms": agg.total_ms,
                    "mean_ms": agg.mean_ms,
                    "max_ms": agg.max_ms,
                }
                for name, agg in sorted(self.phases.items())
            },
            "fork_counts": dict(sorted(self.fork_counts.items())),
            "request_latency": self.request_latency.to_dict(),
            "windowed_latency": self.windowed_latency.state(),
            "slo_alerts": [
                dict(record.get("fields") or {}) for record in self.slo_alerts
            ],
            "rl": {
                name: {
                    "updates": curve.updates,
                    "rewards": curve.rewards,
                    "baselines": curve.baselines,
                    "advantages": curve.advantages,
                    "entropies": curve.entropies,
                }
                for name, curve in sorted(self.rl.items())
            },
            "resilience": list(self.resilience),
            "caches": {
                name: dict(stats) for name, stats in sorted(self.caches.items())
            },
        }


def parse_jsonl(
    text: str, path: str = "<string>"
) -> Tuple[List[Dict[str, Any]], int]:
    """Parse JSONL text into records; returns (records, unparsed_count)."""
    records: List[Dict[str, Any]] = []
    unparsed = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            unparsed += 1
            continue
        if (
            not isinstance(record, dict)
            or record.get("kind") not in ("span", "event")
            or not isinstance(record.get("name"), str)
        ):
            unparsed += 1
            continue
        records.append(record)
    return records, unparsed


def read_text(path: PathLike) -> str:
    """A text artifact's contents; a binary file raises a ``ValueError``
    that names it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a UTF-8 text file ({exc.reason})") from exc


def load_trace(path: PathLike) -> Tuple[List[Dict[str, Any]], int]:
    """Read and parse one JSONL trace file."""
    return parse_jsonl(read_text(path), str(path))


def _fork_key(fork_path: Any) -> str:
    if isinstance(fork_path, list) and fork_path:
        return ">".join(str(int(f)) for f in fork_path)
    return "(no fork)"


def summarize_records(
    records: List[Dict[str, Any]], unparsed: int = 0, path: str = "<trace>"
) -> TraceSummary:
    """Aggregate parsed records into a :class:`TraceSummary`."""
    summary = TraceSummary(path=path, records=len(records), unparsed=unparsed)
    trace_ids: List[str] = []
    for record in records:
        trace_id = record.get("trace")
        if isinstance(trace_id, str) and trace_id not in trace_ids:
            trace_ids.append(trace_id)
        fields = record.get("fields") or {}
        name = record["name"]
        if record["kind"] == "span":
            summary.spans += 1
            summary.span_index[record["span"]] = record
            agg = summary.phases.get(name)
            if agg is None:
                agg = summary.phases[name] = SpanAgg()
            agg.fold(float(record.get("dur_ms", 0.0)))
            if name in REQUEST_SPANS:
                key = _fork_key(fields.get("fork_path"))
                summary.fork_counts[key] = summary.fork_counts.get(key, 0) + 1
                latency = fields.get("latency_ms")
                if latency is not None:
                    summary.request_latency.record(float(latency))
                    start_sim = fields.get("start_sim_ms")
                    if start_sim is not None:
                        summary.windowed_latency.record(
                            float(latency),
                            t_ms=float(start_sim) + float(latency),
                        )
        else:
            summary.events += 1
            if name == "rl.update":
                controller = str(fields.get("controller", "controller"))
                curve = summary.rl.get(controller)
                if curve is None:
                    curve = summary.rl[controller] = RLCurve()
                curve.rewards.append(float(fields.get("reward", 0.0)))
                curve.baselines.append(float(fields.get("baseline", 0.0)))
                curve.advantages.append(float(fields.get("advantage", 0.0)))
                entropy = fields.get("entropy")
                if entropy is not None:
                    curve.entropies.append(float(entropy))
            elif name == "memo.stats":
                cache = str(fields.get("cache", "cache"))
                # Later events win: stats are cumulative snapshots, so the
                # last one per cache describes the whole trace.
                summary.caches[cache] = {
                    k: v for k, v in fields.items() if k != "cache"
                }
            elif name in RESILIENCE_EVENTS:
                summary.resilience.append(record)
                if name == "slo.alert":
                    summary.slo_alerts.append(record)
    summary.traces = trace_ids
    summary.resilience.sort(key=lambda r: float(r.get("t_ms", 0.0)))
    return summary


def summarize_trace(path: PathLike) -> TraceSummary:
    """Load + summarize one trace file."""
    records, unparsed = load_trace(path)
    return summarize_records(records, unparsed, path=str(path))


def expand_trace_paths(paths: List[PathLike]) -> List[Path]:
    """Expand any directories into their sorted ``*.jsonl`` members.

    This is how a pool run's per-task trace directory becomes one
    report: sorting makes the merged view independent of which worker
    finished first.
    """
    expanded: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            expanded.extend(sorted(path.glob("*.jsonl")))
        else:
            expanded.append(path)
    return expanded


def summarize_paths(paths: List[PathLike]) -> TraceSummary:
    """Summarize one or more trace files/directories as a single run.

    Counts sum and latencies fold into the same cumulative histogram and
    simulated-time windows, so a 2-worker sweep's per-task traces
    aggregate to exactly the serial run's report (wall-clock span
    durations excepted — those legitimately differ between machines).
    """
    files = expand_trace_paths(paths)
    if not files:
        raise ValueError(f"no trace files found in {list(map(str, paths))!r}")
    if len(files) == 1:
        return summarize_trace(files[0])
    records: List[Dict[str, Any]] = []
    unparsed = 0
    for file in files:
        file_records, file_unparsed = load_trace(file)
        records.extend(file_records)
        unparsed += file_unparsed
    parents = {file.parent for file in files}
    label = str(parents.pop()) if len(parents) == 1 else "<merged>"
    return summarize_records(
        records, unparsed, path=f"{label} ({len(files)} traces)"
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def _format_rows(headers: List[str], rows: List[List[str]]) -> str:
    cells = [headers] + rows
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    out = []
    for i, row in enumerate(cells):
        out.append("  ".join(c.ljust(widths[j]) for j, c in enumerate(row)))
        if i == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


def render_report(summary: TraceSummary) -> str:
    """The full text report ``obs report`` prints."""
    lines: List[str] = []
    lines.append(f"trace report — {summary.path}")
    lines.append(
        f"{summary.records} records ({summary.spans} spans, "
        f"{summary.events} events) across {len(summary.traces)} trace(s); "
        f"{summary.unparsed} unparsed line(s)"
    )

    if summary.phases:
        lines.append("")
        lines.append("== phase timings (wall clock inside the recorder) ==")
        rows = [
            [
                name,
                str(agg.count),
                f"{agg.total_ms:.2f}",
                f"{agg.mean_ms:.3f}",
                f"{agg.max_ms:.3f}",
            ]
            for name, agg in sorted(
                summary.phases.items(), key=lambda kv: -kv[1].total_ms
            )
        ]
        lines.append(
            _format_rows(["span", "count", "total ms", "mean ms", "max ms"], rows)
        )

    if summary.fork_counts:
        lines.append("")
        lines.append("== requests by fork path ==")
        total = summary.requests()
        rows = [
            [key, str(count), f"{100.0 * count / total:.0f}%"]
            for key, count in sorted(
                summary.fork_counts.items(), key=lambda kv: -kv[1]
            )
        ]
        lines.append(_format_rows(["fork path", "requests", "share"], rows))
        hist = summary.request_latency
        if hist.count:
            lines.append(
                f"request latency (simulated): p50 {hist.p50:.1f} ms, "
                f"p90 {hist.p90:.1f} ms, p99 {hist.p99:.1f} ms "
                f"(n={hist.count}, mean {hist.mean:.1f} ms)"
            )
        window = summary.windowed_latency
        if window.count:
            current = window.window()
            lines.append(
                f"  last {window.window_ms / 1e3:.0f}s (sim time): "
                f"p50 {current.p50:.1f} ms, p90 {current.p90:.1f} ms, "
                f"p99 {current.p99:.1f} ms (n={current.count})"
            )

    if summary.rl:
        lines.append("")
        lines.append("== RL training telemetry ==")
        for controller, curve in sorted(summary.rl.items()):
            first, last = curve.quartile_means()
            lines.append(
                f"{controller}: {curve.updates} updates, reward "
                f"{first:.3f} -> {last:.3f} (first/last quartile mean)"
            )
            lines.append(f"  reward    {spark(curve.rewards)}")
            lines.append(f"  advantage {spark(curve.advantages)}")
            if curve.entropies:
                lines.append(f"  entropy   {spark(curve.entropies)}")

    if summary.caches:
        lines.append("")
        lines.append("== cache telemetry (memo pools) ==")
        rows = []
        for name, stats in sorted(summary.caches.items()):
            hits = int(stats.get("hits", 0))
            misses = int(stats.get("misses", 0))
            lookups = hits + misses
            rate = hits / lookups if lookups else 0.0
            rows.append(
                [
                    name,
                    str(hits),
                    str(misses),
                    f"{100.0 * rate:.0f}%",
                    str(stats.get("size", "-")),
                    str(stats.get("evictions", "-")),
                ]
            )
        lines.append(
            _format_rows(
                ["cache", "hits", "misses", "hit rate", "size", "evicted"], rows
            )
        )

    if summary.resilience:
        lines.append("")
        lines.append("== resilience timeline ==")
        for record in summary.resilience:
            fields = record.get("fields") or {}
            detail = ", ".join(f"{k}={v}" for k, v in sorted(fields.items()))
            owner = record.get("span") or "-"
            lines.append(
                f"  {float(record.get('t_ms', 0.0)):10.3f} ms  "
                f"{record['name']:<20} span={owner}  {detail}"
            )

    return "\n".join(lines)
