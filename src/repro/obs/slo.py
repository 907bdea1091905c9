"""Declarative SLOs with a multi-window burn-rate evaluator.

The paper's whole objective is meeting a latency target under shifting
edge-cloud context; this module turns that target into an *operational*
signal. An :class:`SLOPolicy` states the objective ("fraction of
requests under ``objective_ms`` must be at least ``target``"); the
:class:`BurnRateEvaluator` consumes every request's simulated completion
time and latency, and evaluates the Google-SRE-style multi-window burn
rate over the windowed counters of :mod:`repro.obs.window`:

.. code-block:: text

    burn(window) = violation_fraction(window) / error_budget
    alert fires   when burn(fast) >= threshold AND burn(slow) >= threshold
    alert resolves when burn(fast) < threshold

The fast window makes the alert responsive (a brownout trips it within
seconds of simulated time) and lets it resolve quickly once the fault
clears; the slow window confirms the burn is sustained, so a single
slow request cannot page. Every transition is emitted as a typed
:class:`AlertEvent` and as an ``slo.alert`` trace event, so the
resilience timeline shows exactly when the SLO noticed what the fault
schedule did.

Like everything windowed, the evaluator runs on **simulated time** —
cumulative metrics provably cannot distinguish a run whose violations
cluster in one brownout from the same latencies spread evenly (same
histogram, same mean), which is precisely why the burn-rate engine
exists (pinned by ``tests/obs/test_slo.py``).

Opt-in degraded mode: :class:`BurnRateBreaker` implements the
:class:`~repro.runtime.resilience.CircuitBreaker` protocol but refuses
offloads while the alert is firing, so
:func:`~repro.runtime.resilience.resolve_offload` consumes the burn
rate instead of only consecutive-failure breaker state. Wire it by
constructing an :class:`~repro.runtime.session.InferenceSession` with
``slo=SLOPolicy(..., degrade_on_alert=True)`` and an offload policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .trace import get_recorder
from .window import DEFAULT_BUCKET_MS, WindowedCounter


@dataclass(frozen=True)
class SLOPolicy:
    """A latency objective plus the burn-rate alerting knobs.

    ``objective_ms`` is the per-request latency objective; ``target`` the
    fraction of requests that must meet it (error budget = ``1 -
    target``). ``fast_window_ms`` / ``slow_window_ms`` are the two
    burn-rate windows, both in simulated time; ``burn_threshold`` is the
    common threshold the burn rate must exceed in *both* windows to fire.
    ``degrade_on_alert`` opts the serving path into edge-pinned degraded
    mode while the alert is firing (see :class:`BurnRateBreaker`).
    """

    objective_ms: float
    target: float = 0.9
    fast_window_ms: float = 5_000.0
    slow_window_ms: float = 30_000.0
    burn_threshold: float = 4.0
    bucket_ms: float = DEFAULT_BUCKET_MS
    degrade_on_alert: bool = False

    def __post_init__(self) -> None:
        if not self.objective_ms > 0:
            raise ValueError(
                f"objective_ms must be > 0, got {self.objective_ms!r}"
            )
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"target must be in (0, 1), got {self.target!r}"
            )
        if not self.fast_window_ms > 0 or not self.slow_window_ms > 0:
            raise ValueError("burn-rate windows must be > 0")
        if self.fast_window_ms > self.slow_window_ms:
            raise ValueError(
                "fast_window_ms must not exceed slow_window_ms "
                f"({self.fast_window_ms!r} > {self.slow_window_ms!r})"
            )
        if not self.burn_threshold > 0:
            raise ValueError(
                f"burn_threshold must be > 0, got {self.burn_threshold!r}"
            )
        if not self.bucket_ms > 0:
            raise ValueError(f"bucket_ms must be > 0, got {self.bucket_ms!r}")

    @property
    def error_budget(self) -> float:
        """Allowed violation fraction (1 - target)."""
        return 1.0 - self.target


@dataclass(frozen=True)
class AlertEvent:
    """One burn-rate alert transition, in simulated time."""

    state: str  # "firing" | "resolved"
    t_sim_ms: float
    burn_fast: float
    burn_slow: float
    budget_consumed: float

    FIRING = "firing"
    RESOLVED = "resolved"


class _WindowTotals:
    """Running (requests, violations) sums of one burn-rate window.

    The window is ``[lo, end)`` with ``end`` the newest bucket's end,
    the span :meth:`WindowedCounter.window_sum` answers.
    """

    __slots__ = ("duration_ms", "lo", "requests", "violations")

    def __init__(self, duration_ms: float) -> None:
        self.duration_ms = duration_ms
        self.lo = 0.0
        self.requests = 0.0
        self.violations = 0.0


class BurnRateEvaluator:
    """Streams request outcomes into windowed burn-rate alerting.

    Feed every request with :meth:`observe`; the evaluator keeps
    windowed request/violation counters, runs the alert state machine,
    emits ``slo.alert`` trace events on transitions, and accumulates the
    typed :class:`AlertEvent` history in :attr:`alerts`.

    Each observation costs O(1) in history: the evaluator keeps running
    (requests, violations) totals for the fast and slow windows. They
    are recounted from :meth:`WindowedCounter.window_sum` only when a
    counter's newest bucket advances; otherwise the observation is added
    to each window whose span admits its bucket. The counts are
    integer-valued floats, so the totals equal the recount exactly and
    the burn rates come out the same bytes.
    """

    def __init__(self, policy: SLOPolicy) -> None:
        self.policy = policy
        window_ms = policy.slow_window_ms
        self.requests = WindowedCounter(
            bucket_ms=policy.bucket_ms, window_ms=window_ms
        )
        self.violations = WindowedCounter(
            bucket_ms=policy.bucket_ms, window_ms=window_ms
        )
        self.total = 0
        self.violation_total = 0
        self.alerts: List[AlertEvent] = []
        self.state = "ok"
        #: Burn rates of the fast and slow windows at the last observation.
        self.burn_fast = 0.0
        self.burn_slow = 0.0
        self._windows = (
            _WindowTotals(float(policy.fast_window_ms)),
            _WindowTotals(float(policy.slow_window_ms)),
        )

    @property
    def firing(self) -> bool:
        return self.state == AlertEvent.FIRING

    # -- burn rate ---------------------------------------------------------
    def violation_fraction(
        self, window_ms: float, end_ms: Optional[float] = None
    ) -> float:
        """Fraction of windowed requests that violated the objective."""
        requests = self.requests.window_sum(window_ms, end_ms)
        if requests <= 0:
            return 0.0
        return self.violations.window_sum(window_ms, end_ms) / requests

    def burn_rate(
        self, window_ms: float, end_ms: Optional[float] = None
    ) -> float:
        """Windowed violation fraction over the error budget.

        1.0 means the window is consuming budget exactly at the rate the
        SLO allows; ``burn_threshold`` times that is the alert bar.
        """
        return self.violation_fraction(window_ms, end_ms) / self.policy.error_budget

    @property
    def budget_consumed(self) -> float:
        """Overall violation fraction as a share of the error budget.

        1.0 means the run so far has spent its entire budget; recovery
        (good requests after a fault clears) pushes it back down.
        """
        if self.total == 0:
            return 0.0
        return (self.violation_total / self.total) / self.policy.error_budget

    # -- streaming ---------------------------------------------------------
    def observe(self, latency_ms: float, *, t_ms: float) -> Optional[AlertEvent]:
        """Record one request completion and evaluate the alert machine.

        ``t_ms`` is the request's *simulated* completion time. Returns
        the :class:`AlertEvent` if this observation transitioned the
        alert state, else ``None``. A non-finite ``latency_ms`` raises
        ``ValueError``: NaN compares false against the objective and
        would count as meeting it.
        """
        latency = float(latency_ms)
        if not math.isfinite(latency):
            raise ValueError(f"latency_ms must be finite, got {latency_ms!r}")
        violated = latency > self.policy.objective_ms
        requests, violations = self.requests, self.violations
        ends = (requests.end_ms(), violations.end_ms())
        kept = requests.add(1.0, t_ms=t_ms)
        self.total += 1
        kept_violation = False
        if violated:
            kept_violation = violations.add(1.0, t_ms=t_ms)
            self.violation_total += 1
        end = requests.end_ms()
        if ends != (end, violations.end_ms()):
            self._recount(end)
        elif kept or kept_violation:
            # Each ring drops what falls below its own floor, so the two
            # counts are admitted separately.
            start = requests.bucket_index(t_ms) * requests.bucket_ms
            for window in self._windows:
                if window.lo <= start < end:
                    if kept:
                        window.requests += 1.0
                    if kept_violation:
                        window.violations += 1.0
        return self._evaluate(t_ms)

    def _recount(self, end: float) -> None:
        """Re-derive every window total from the counters, ending at ``end``."""
        for window in self._windows:
            window.lo = end - window.duration_ms
            window.requests = self.requests.window_sum(window.duration_ms, end)
            window.violations = self.violations.window_sum(window.duration_ms, end)

    def _burn(self, window: _WindowTotals) -> float:
        fraction = 0.0
        if window.requests > 0:
            fraction = window.violations / window.requests
        return fraction / self.policy.error_budget

    def _evaluate(self, t_ms: float) -> Optional[AlertEvent]:
        fast, slow = self._windows
        burn_fast = self.burn_fast = self._burn(fast)
        burn_slow = self.burn_slow = self._burn(slow)
        threshold = self.policy.burn_threshold
        event: Optional[AlertEvent] = None
        if self.state != AlertEvent.FIRING:
            if burn_fast >= threshold and burn_slow >= threshold:
                event = AlertEvent(
                    AlertEvent.FIRING,
                    float(t_ms),
                    burn_fast,
                    burn_slow,
                    self.budget_consumed,
                )
        elif burn_fast < threshold:
            # The fast window went healthy again: resolve, even if the
            # slow window still remembers the burn — that asymmetry is
            # what makes recovery visible within seconds of the fault
            # clearing instead of a slow-window later.
            event = AlertEvent(
                AlertEvent.RESOLVED,
                float(t_ms),
                burn_fast,
                burn_slow,
                self.budget_consumed,
            )
        if event is not None:
            self.state = event.state
            self.alerts.append(event)
            get_recorder().event(
                "slo.alert",
                state=event.state,
                t_sim_ms=event.t_sim_ms,
                burn_fast=round(event.burn_fast, 4),
                burn_slow=round(event.burn_slow, 4),
                budget_consumed=round(event.budget_consumed, 4),
                objective_ms=self.policy.objective_ms,
            )
        return event

    # -- export ------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Current alert/budget state, for ``SessionStats`` and reports."""
        return {
            "state": self.state,
            "alerts": len(self.alerts),
            "burn_fast": self.burn_fast,
            "burn_slow": self.burn_slow,
            "budget_consumed": self.budget_consumed,
            "objective_ms": self.policy.objective_ms,
            "target": self.policy.target,
        }


@dataclass
class SLOStatus:
    """Frozen copy of an evaluator's headline state (stats exports)."""

    state: str = "ok"
    alerts: int = 0
    burn_fast: float = 0.0
    burn_slow: float = 0.0
    budget_consumed: float = 0.0

    @classmethod
    def from_evaluator(
        cls, evaluator: Optional[BurnRateEvaluator]
    ) -> Optional["SLOStatus"]:
        if evaluator is None:
            return None
        summary = evaluator.summary()
        return cls(
            state=summary["state"],
            alerts=summary["alerts"],
            burn_fast=summary["burn_fast"],
            burn_slow=summary["burn_slow"],
            budget_consumed=summary["budget_consumed"],
        )


def make_burn_rate_breaker(
    evaluator: BurnRateEvaluator, config: Optional[object] = None
):
    """A :class:`BurnRateBreaker` bound to ``evaluator``.

    Imported lazily so this module stays importable below
    :mod:`repro.runtime` (the breaker protocol lives there).
    """
    from ..runtime.resilience import CircuitBreaker

    class BurnRateBreaker(CircuitBreaker):
        """Breaker that also refuses offloads while the SLO alert fires.

        Drop-in for :func:`~repro.runtime.resilience.resolve_offload`'s
        ``breaker`` argument: ``allow()`` consults the burn-rate state
        *before* the classic consecutive-failure machinery, so degraded
        edge-pinned mode (no probe cost) kicks in from latency burn
        alone — a browning-out cloud that answers every probe would
        never trip the failure-count breaker.
        """

        def __init__(self, evaluator: BurnRateEvaluator, config=None) -> None:
            super().__init__(config)
            self.evaluator = evaluator

        def allow(self, t_ms: float) -> bool:
            if self.evaluator.firing:
                return False
            return super().allow(t_ms)

    return BurnRateBreaker(evaluator, config)
