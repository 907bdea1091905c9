"""Lightweight span timers and counters for the search hot path.

The ROADMAP's "fast as the hardware allows" goal needs numbers before it
needs optimizations: a :class:`PerfRegistry` accumulates named counters and
span timings (count / total / max / mean milliseconds) with dictionary-write
overhead, so it can stay enabled inside loops that run thousands of times
per search episode. Regions are timed with :func:`repro.obs.span`, which
folds each block into the process-wide default registry via
:meth:`PerfRegistry.record_span` (search evaluation, latency estimates,
tree/branch episodes, both serving doors); ``snapshot()`` / ``dump()``
export everything as JSON (``make bench-json`` persists it next to the
pytest-benchmark results).

This module deliberately imports nothing from the rest of :mod:`repro`, so
any layer may depend on it without cycles.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple, Union

PathLike = Union[str, Path]


@dataclass
class SpanStat:
    """Accumulated timings of one named span."""

    count: int = 0
    total_ms: float = 0.0
    max_ms: float = 0.0

    @property
    def mean_ms(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total_ms / self.count

    def record(self, elapsed_ms: float) -> None:
        self.count += 1
        self.total_ms += elapsed_ms
        if elapsed_ms > self.max_ms:
            self.max_ms = elapsed_ms

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_ms": self.total_ms,
            "mean_ms": self.mean_ms,
            "max_ms": self.max_ms,
        }


def _log_spaced_bounds(
    start_ms: float = 0.01, factor: float = 2.0, count: int = 26
) -> Tuple[float, ...]:
    """Fixed log-spaced bucket upper bounds: 0.01 ms up to ~335 s."""
    return tuple(start_ms * factor**i for i in range(count))


#: Shared bucket layout so histograms from different runs line up.
DEFAULT_BUCKET_BOUNDS = _log_spaced_bounds()


class HistogramStat:
    """Fixed-bucket latency histogram with approximate percentiles.

    Buckets are log-spaced upper bounds (shared across the process via
    :data:`DEFAULT_BUCKET_BOUNDS`, so snapshots from different scenarios
    merge bucket-by-bucket); values above the last bound land in the
    overflow bucket. Sum/count/min/max are exact; percentiles are linearly
    interpolated inside the bucket the rank falls in — the error is
    bounded by the bucket width, which the ROADMAP's percentile tracking
    tolerates and a reservoir would not beat without unbounded memory.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS) -> None:
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, list(bounds)[1:])
        ):
            raise ValueError("bounds must be a strictly increasing sequence")
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)  # +overflow
        self.count = 0
        self.sum = 0.0
        self.min = 0.0
        self.max = 0.0

    def record(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        if self.count == 0 or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (0 <= q <= 1) of recorded values."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo:
                    return lo
                fraction = (rank - cumulative) / bucket_count
                return lo + (hi - lo) * fraction
            cumulative += bucket_count
        return self.max

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        return self.quantile(0.90)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def merge(self, other: "HistogramStat") -> "HistogramStat":
        """Fold ``other`` into this histogram, bucket by bucket.

        This is the documented mergeability contract: because bucket
        bounds are shared (:data:`DEFAULT_BUCKET_BOUNDS`), per-scenario /
        per-worker snapshots merge exactly — counts and sum add, min/max
        recompute — and the merged percentile bounds equal those of one
        histogram that recorded every value itself.
        """
        if self.bounds != other.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds"
            )
        if other.count == 0:
            return self
        if self.count == 0 or other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self.count += other.count
        self.sum += other.sum
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        return self

    def state_dict(self) -> Dict[str, object]:
        """Exact serializable state (per-bucket counts, not percentiles)."""
        return {
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_state(
        cls,
        state: Dict[str, object],
        bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS,
    ) -> "HistogramStat":
        """Rebuild a histogram from :meth:`state_dict` output."""
        hist = cls(bounds)
        counts = list(state["counts"])  # type: ignore[arg-type]
        if len(counts) != len(hist.counts):
            raise ValueError(
                f"state has {len(counts)} buckets, bounds imply "
                f"{len(hist.counts)}"
            )
        hist.counts = [int(c) for c in counts]
        hist.count = int(state["count"])  # type: ignore[arg-type]
        hist.sum = float(state["sum"])  # type: ignore[arg-type]
        hist.min = float(state["min"])  # type: ignore[arg-type]
        hist.max = float(state["max"])  # type: ignore[arg-type]
        return hist

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus-style.

        The final pair uses ``inf`` and equals the total count.
        """
        pairs: List[Tuple[float, int]] = []
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            pairs.append((bound, cumulative))
        pairs.append((float("inf"), self.count))
        return pairs

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }


class PerfRegistry:
    """Named counters plus span timers, dumpable as JSON.

    ``enabled=False`` turns :meth:`record_span`, :meth:`count` and the
    histogram writes into cheap early returns, so instrumented code never
    needs its own gating.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, int] = {}
        self._spans: Dict[str, SpanStat] = {}
        self._histograms: Dict[str, HistogramStat] = {}
        # Windowed companions, keyed on *simulated* time (never wall
        # clock). Values are repro.obs.window ring classes, imported
        # lazily in observe_at/count_at — the one deliberate exception
        # to this module's no-repro-imports rule, deferred to call time
        # so the layering (perf below obs) still holds at import time.
        self._windows: Dict[str, object] = {}
        self._window_counters: Dict[str, object] = {}

    # -- counters ---------------------------------------------------------
    def count(self, name: str, by: int = 1) -> None:
        """Increment counter ``name`` by ``by``."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + by

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    # -- spans ------------------------------------------------------------
    def record_span(self, name: str, elapsed_ms: float) -> None:
        """Fold one externally-timed duration into span ``name``."""
        if not self.enabled:
            return
        stat = self._spans.get(name)
        if stat is None:
            stat = self._spans[name] = SpanStat()
        stat.record(elapsed_ms)

    def span_stat(self, name: str) -> SpanStat:
        """Accumulated stats of span ``name`` (zeros if never recorded)."""
        return self._spans.get(name, SpanStat())

    # -- histograms --------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name`` (latency percentiles)."""
        if not self.enabled:
            return
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = HistogramStat()
        hist.record(value)

    def histogram(self, name: str) -> HistogramStat:
        """Histogram ``name`` (an empty one if never observed)."""
        return self._histograms.get(name, HistogramStat())

    # -- windowed metrics (simulated-time rings) ---------------------------
    def observe_at(self, name: str, value: float, t_ms: float) -> None:
        """Fold ``value`` into both the cumulative histogram ``name`` and
        its sliding-window companion, bucketed on simulated time ``t_ms``.

        The windowed ring is what makes a brownout's p99 spike visible
        inside a long sweep: the cumulative histogram only ever dilutes
        it. ``t_ms`` must be the *simulated* clock (request completion
        time), consistent with the monotonic-clock rule.
        """
        self.observe(name, value)
        if not self.enabled:
            return
        window = self._windows.get(name)
        if window is None:
            from ..obs.window import WindowedHistogram

            window = self._windows[name] = WindowedHistogram()
        window.record(value, t_ms=t_ms)  # type: ignore[attr-defined]

    def count_at(self, name: str, by: int = 1, *, t_ms: float) -> None:
        """Increment counter ``name`` cumulatively *and* in its
        simulated-time window ring."""
        self.count(name, by)
        if not self.enabled:
            return
        counter = self._window_counters.get(name)
        if counter is None:
            from ..obs.window import WindowedCounter

            counter = self._window_counters[name] = WindowedCounter()
        counter.add(by, t_ms=t_ms)  # type: ignore[attr-defined]

    def window(self, name: str):
        """The :class:`~repro.obs.window.WindowedHistogram` for ``name``
        (``None`` if :meth:`observe_at` never recorded into it)."""
        return self._windows.get(name)

    def window_counter(self, name: str):
        """The :class:`~repro.obs.window.WindowedCounter` for ``name``
        (``None`` if :meth:`count_at` never recorded into it)."""
        return self._window_counters.get(name)

    # -- export -----------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Everything recorded so far, as plain JSON-serializable dicts."""
        windows: Dict[str, object] = {}
        for name, window in sorted(self._windows.items()):
            windows[name] = window.state()  # type: ignore[attr-defined]
        for name, counter in sorted(self._window_counters.items()):
            windows[name] = counter.state()  # type: ignore[attr-defined]
        return {
            "counters": dict(sorted(self._counters.items())),
            "spans": {
                name: stat.to_dict()
                for name, stat in sorted(self._spans.items())
            },
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self._histograms.items())
            },
            "windows": windows,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def dump(self, path: PathLike) -> None:
        """Write the snapshot as a JSON file."""
        Path(path).write_text(self.to_json())

    def reset(self) -> None:
        self._counters.clear()
        self._spans.clear()
        self._histograms.clear()
        self._windows.clear()
        self._window_counters.clear()

    @contextmanager
    def scoped(self) -> Iterator["PerfRegistry"]:
        """Scenario-scoped measurement: reset on entry, yield this registry.

        ``run_scenario`` (and the chaos experiment) enter this at the top so
        counters/spans/histograms never mix across scenarios in one process.
        The registry is deliberately *not* reset again on exit — the caller
        reads the scenario's numbers after the block.
        """
        self.reset()
        yield self


#: Process-wide default registry used by the instrumented hot paths.
_DEFAULT_REGISTRY = PerfRegistry()


def get_registry() -> PerfRegistry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY


def set_registry(registry: PerfRegistry) -> PerfRegistry:
    """Swap the default registry (tests / isolated runs); returns the old."""
    global _DEFAULT_REGISTRY
    previous = _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = registry
    return previous
