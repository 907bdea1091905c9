"""Bandwidth traces — the varying network context (Fig. 1).

The paper motivates context-awareness with real measurements: "the bandwidth
changes drastically even within a small time window like 1 s" under outdoor
4G and weak indoor WiFi. Real traces are unavailable offline, so this module
generates them with a regime-switching AR(1) process:

- an AR(1) core captures short-term autocorrelated fluctuation;
- a two-state (good/degraded) Markov regime captures the longer dips of
  moving devices and weak signals;
- per-scene parameters (mean level, volatility, regime depth/stickiness)
  encode the paper's qualitative scene differences — 4G vs WiFi, weak vs
  normal signal, static vs slow vs quick mobility.

Traces are deterministic given a seed, and expose the lower/upper quartile
split the paper uses to define the K = 2 bandwidth *types* ("we choose the
upper quartile and the lower quartile of the bandwidth to represent the
'good' and 'poor' network conditions").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a bandwidth trace (all in Mbps)."""

    mean: float
    std: float
    minimum: float
    maximum: float
    lower_quartile: float
    upper_quartile: float


class BandwidthTrace:
    """A sampled bandwidth time series with constant sample spacing.

    The samples are a read-only copy of the caller's: validation and the
    :meth:`window_mean` memo stay true however the input is reused.
    """

    def __init__(self, samples_mbps: Sequence[float], interval_s: float) -> None:
        samples = np.array(samples_mbps, dtype=float)
        if samples.ndim != 1 or len(samples) == 0:
            raise ValueError("trace needs a non-empty 1-D sample array")
        if np.any(samples <= 0):
            raise ValueError("bandwidth samples must be positive")
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        samples.flags.writeable = False
        self.samples = samples
        self.interval_s = interval_s
        self._window_means: Dict[Tuple[int, int], float] = {}

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) * self.interval_s

    def at(self, t_s: float) -> float:
        """Bandwidth at time ``t_s`` (clamped, zero-order hold; wraps around
        so long emulations can replay a finite trace)."""
        index = int(t_s / self.interval_s) % len(self.samples)
        return float(self.samples[index])

    def window_mean(self, t_s: float, window_s: float) -> float:
        """Mean bandwidth over [t, t+window) — a coarse estimator's view.

        Memoized per (first sample, sample count): a replay asks for the
        same few windows over and over.
        """
        n = len(self.samples)
        start = int(t_s / self.interval_s)
        count = max(1, int(round(window_s / self.interval_s)))
        key = (start % n, count)
        mean = self._window_means.get(key)
        if mean is None:
            index = (key[0] + np.arange(count)) % n
            mean = self._window_means[key] = float(self.samples[index].mean())
        return mean

    def stats(self) -> TraceStats:
        q1, q3 = np.percentile(self.samples, [25, 75])
        return TraceStats(
            mean=float(self.samples.mean()),
            std=float(self.samples.std()),
            minimum=float(self.samples.min()),
            maximum=float(self.samples.max()),
            lower_quartile=float(q1),
            upper_quartile=float(q3),
        )

    def bandwidth_types(self, k: int = 2) -> List[float]:
        """The K representative bandwidths used as tree fork conditions.

        For K = 2 these are the lower and upper quartiles (paper Sec. VII
        Setup); for general K, evenly spaced percentiles between 25 and 75.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if k == 1:
            return [float(np.median(self.samples))]
        percentiles = np.linspace(25, 75, k)
        return [float(v) for v in np.percentile(self.samples, percentiles)]

    def classify(self, bandwidth_mbps: float, k: int = 2) -> int:
        """Map a live bandwidth reading to the nearest type index (Alg. 2
        line 5: 'match it to the k-th branch')."""
        types = self.bandwidth_types(k)
        distances = [abs(bandwidth_mbps - t) for t in types]
        return int(np.argmin(distances))


@dataclass(frozen=True)
class TraceModel:
    """Regime-switching AR(1) generator parameters for one scene."""

    mean_mbps: float
    volatility: float  # AR(1) innovation scale, fraction of the mean
    ar_coeff: float  # AR(1) pole; closer to 1 = smoother
    degraded_ratio: float  # mean bandwidth in the degraded regime / mean
    p_degrade: float  # P(good -> degraded) per sample
    p_recover: float  # P(degraded -> good) per sample
    floor_mbps: float = 0.2

    def generate(
        self,
        duration_s: float = 60.0,
        interval_s: float = 0.1,
        seed: int = 0,
    ) -> BandwidthTrace:
        """Sample a trace of ``duration_s`` seconds at ``interval_s`` spacing."""
        rng = np.random.default_rng(seed)
        count = max(1, int(round(duration_s / interval_s)))
        samples = np.empty(count)
        level = 0.0  # AR(1) state in log space
        degraded = False
        sigma = self.volatility
        for i in range(count):
            if degraded:
                if rng.random() < self.p_recover:
                    degraded = False
            else:
                if rng.random() < self.p_degrade:
                    degraded = True
            level = self.ar_coeff * level + rng.normal(0.0, sigma)
            regime_mean = self.mean_mbps * (self.degraded_ratio if degraded else 1.0)
            samples[i] = max(self.floor_mbps, regime_mean * np.exp(level))
        return BandwidthTrace(samples, interval_s)


def constant_trace(bandwidth_mbps: float, duration_s: float = 60.0) -> BandwidthTrace:
    """Degenerate trace for constant-context experiments (Sec. V)."""
    count = max(1, int(round(duration_s / 0.1)))
    return BandwidthTrace(np.full(count, bandwidth_mbps), 0.1)
