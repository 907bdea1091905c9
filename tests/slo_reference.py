"""Oracle: the burn-rate computation before it kept running window totals.

A verbatim copy of ``BurnRateEvaluator``'s counting, burn-rate and alert
state machine as it was when every observation recounted both windows
with four ``WindowedCounter.window_sum`` queries. Two departures: the
``slo.alert`` trace emission is left out (it changes no number), and
``_evaluate`` keeps the last burn rates on the instance. Tests feed it
the same stream as the evaluator and compare the burn rates and alert
history after every observation.
"""

from typing import List, Optional

from repro.obs.slo import AlertEvent, SLOPolicy
from repro.obs.window import WindowedCounter


class ReferenceBurnRateEvaluator:
    """Recounts the fast and slow windows on every observation."""

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

    def violation_fraction(
        self, window_ms: float, end_ms: Optional[float] = None
    ) -> float:
        requests = self.requests.window_sum(window_ms, end_ms)
        if requests <= 0:
            return 0.0
        return self.violations.window_sum(window_ms, end_ms) / requests

    def burn_rate(
        self, window_ms: float, end_ms: Optional[float] = None
    ) -> float:
        return self.violation_fraction(window_ms, end_ms) / self.policy.error_budget

    @property
    def budget_consumed(self) -> float:
        if self.total == 0:
            return 0.0
        return (self.violation_total / self.total) / self.policy.error_budget

    def observe(self, latency_ms: float, *, t_ms: float) -> Optional[AlertEvent]:
        violated = float(latency_ms) > self.policy.objective_ms
        self.requests.add(1.0, t_ms=t_ms)
        self.total += 1
        if violated:
            self.violations.add(1.0, t_ms=t_ms)
            self.violation_total += 1
        return self._evaluate(t_ms)

    def _evaluate(self, t_ms: float) -> Optional[AlertEvent]:
        end = self.requests.end_ms()
        burn_fast = self.burn_rate(self.policy.fast_window_ms, end)
        burn_slow = self.burn_rate(self.policy.slow_window_ms, end)
        self.burn_fast, self.burn_slow = burn_fast, burn_slow
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
        return event
