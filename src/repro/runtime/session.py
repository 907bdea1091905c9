"""A stateful inference session — the deployed runtime's front door.

Wraps a trained model tree, a runtime environment and (optionally) a
bandwidth predictor behind the API an application would actually call::

    session = InferenceSession(tree, env, predictor=EWMAPredictor())
    outcome = session.infer()          # one request, now
    outcome = session.infer(at_ms=500) # or at an explicit trace time
    print(session.stats())

The session advances its own clock (requests are sequential on the device),
feeds every bandwidth measurement into the predictor so fork decisions use
the *smoothed* belief rather than a single noisy probe, and accumulates the
running statistics a monitoring endpoint would export.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..contracts import require_non_negative
from ..network.predictor import BandwidthPredictor
from ..obs.slo import BurnRateEvaluator, SLOPolicy, SLOStatus, make_burn_rate_breaker
from ..perf import HistogramStat
from ..search.tree import ModelTree
from .adaptation import QuantileForkMatcher, adaptive_probe
from .emulator import EmulationResult, device_only, record_completion, record_fault, serve_request
from .engine import InferenceOutcome, RuntimeEnvironment, TreePlan, admit_plan
from .faults import FaultError
from .resilience import CircuitBreaker, OffloadPolicy


@dataclass
class SessionStats:
    """Aggregates exported by :meth:`InferenceSession.stats`.

    The latency percentiles (p50/p95/p99) are read from the session's
    :class:`~repro.perf.HistogramStat` — fixed log-spaced buckets, so a
    monitoring endpoint can export them without keeping every outcome —
    while ``p95_latency_ms`` keeps its exact-percentile semantics for
    backward compatibility with existing reports.
    """

    requests: int
    mean_latency_ms: float
    p95_latency_ms: float
    mean_accuracy: float
    mean_reward: float
    offload_rate: float
    fallback_rate: float
    #: Histogram-backed end-to-end latency percentiles.
    p50_latency_hist_ms: float = 0.0
    p95_latency_hist_ms: float = 0.0
    p99_latency_hist_ms: float = 0.0
    #: Resilience telemetry (all zero/empty for a session without a policy).
    retry_total: int = 0
    deadline_miss_rate: float = 0.0
    degraded_rate: float = 0.0
    breaker_state: Optional[str] = None
    breaker_transitions: Dict[str, int] = field(default_factory=dict)
    #: Typed environmental faults the session boundary absorbed instead
    #: of crashing the serving loop, counted per exception type name.
    swallowed_faults: Dict[str, int] = field(default_factory=dict)
    #: Burn-rate alerting state (``None`` for a session without an SLO).
    slo: Optional[SLOStatus] = None


class InferenceSession:
    """Sequential inference over a model tree with predictive fork probing."""

    def __init__(
        self,
        tree: ModelTree,
        env: RuntimeEnvironment,
        predictor: Optional[BandwidthPredictor] = None,
        fork_matcher: Optional[QuantileForkMatcher] = None,
        seed: int = 0,
        policy: Optional[OffloadPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        slo: Optional[SLOPolicy] = None,
    ) -> None:
        self.tree = tree
        self.env = env
        #: The degraded-retry environment after an absorbed fault.
        self._fallback_env = device_only(env)
        self.predictor = predictor
        self.fork_matcher = fork_matcher
        self._adaptive = (
            adaptive_probe(fork_matcher, tree.bandwidth_types)
            if fork_matcher is not None
            else None
        )
        self.rng = np.random.default_rng(seed)
        self.clock_ms = 0.0
        self.outcomes: List[InferenceOutcome] = []
        #: Environmental faults absorbed at the serving boundary, by type.
        self.fault_counts: Dict[str, int] = {}
        #: End-to-end simulated latency distribution across requests.
        self.latency_hist = HistogramStat()
        self.slo_policy = slo
        self.slo_evaluator = BurnRateEvaluator(slo) if slo is not None else None
        # A policy without an explicit breaker still gets one: the breaker
        # is the session-scoped half of the resilience state machine. With
        # ``slo.degrade_on_alert`` the default breaker is burn-rate aware,
        # so resolve_offload's degraded path also trips on latency burn.
        self.policy = policy
        if breaker is None and policy is not None:
            if slo is not None and slo.degrade_on_alert:
                breaker = make_burn_rate_breaker(self.slo_evaluator)
            else:
                breaker = CircuitBreaker()
        self.breaker = breaker
        self._plan = TreePlan(tree, policy=self.policy, breaker=self.breaker)
        # Admission: a malformed tree is rejected here, not discovered
        # when some bandwidth finally reaches the broken fork
        # mid-inference; the records it verified are the ones served.
        admit_plan(self._plan)

    def infer(self, at_ms: Optional[float] = None) -> InferenceOutcome:
        """Run one inference; returns its outcome and advances the clock.

        ``at_ms`` pins the request to a trace time; by default requests run
        back-to-back from the previous completion.
        """
        if at_ms is not None:
            require_non_negative(at_ms, "at_ms")
        start = self.clock_ms if at_ms is None else max(at_ms, self.clock_ms)
        if self.predictor is not None or self._adaptive is not None:
            env = self._predictive_env()
        else:
            env = self.env
        # The serving boundary (fault absorption, request span) is the
        # same core run_emulation uses.
        outcome = serve_request(
            self._plan, start, env, self._fallback_env, self.rng,
            name="session.infer", index=len(self.outcomes),
            faults=self.fault_counts,
        )
        self.latency_hist.record(outcome.latency_ms)
        record_completion("session.infer", outcome, self.slo_evaluator)
        self.clock_ms = start + outcome.latency_ms
        self.outcomes.append(outcome)
        return outcome

    def _record_fault(self, fault: FaultError, where: str) -> None:
        """Book a fault absorbed outside the request core (the probe)."""
        record_fault(
            "session", fault, self.fault_counts,
            index=len(self.outcomes), where=where,
        )

    def _predictive_env(self) -> RuntimeEnvironment:
        """The same environment, with probes routed through the predictor."""
        predictor = self.predictor
        base_probe = self.env.bandwidth_probe_noise
        adaptive = self._adaptive

        def predictive_probe(
            true_mbps: float, t_ms: float, rng: np.random.Generator
        ) -> float:
            measured = max(0.1, base_probe(true_mbps, t_ms, rng))
            try:
                if predictor is not None:
                    predictor.update(measured)
                    measured = predictor.predict()
                if adaptive is not None:
                    measured = adaptive(measured)
            except FaultError as fault:
                # A predictor signalling blackout (no usable estimate)
                # must not kill the request — fly on the raw probe and
                # record that the smoothing layer was down.
                self._record_fault(fault, where="predictive_probe")
            return measured

        # dataclasses.replace carries every other field (outage windows,
        # fault schedules, future additions) — only the probe is swapped.
        return dataclasses.replace(
            self.env, bandwidth_probe_noise=predictive_probe
        )

    def stats(self) -> SessionStats:
        """Running statistics over every request served so far."""
        if not self.outcomes:
            raise RuntimeError("no inferences have run yet")
        result = EmulationResult(outcomes=list(self.outcomes))
        return SessionStats(
            requests=len(self.outcomes),
            mean_latency_ms=result.mean_latency_ms,
            p95_latency_ms=result.p95_latency_ms,
            p50_latency_hist_ms=self.latency_hist.p50,
            p95_latency_hist_ms=self.latency_hist.p95,
            p99_latency_hist_ms=self.latency_hist.p99,
            mean_accuracy=result.mean_accuracy,
            mean_reward=result.mean_reward,
            offload_rate=result.offload_rate,
            fallback_rate=float(
                np.mean([o.fell_back for o in self.outcomes])
            ),
            retry_total=int(sum(o.retries for o in self.outcomes)),
            deadline_miss_rate=float(
                np.mean([o.deadline_missed for o in self.outcomes])
            ),
            degraded_rate=float(
                np.mean([o.degraded for o in self.outcomes])
            ),
            breaker_state=self.breaker.state if self.breaker is not None else None,
            breaker_transitions=(
                self.breaker.transition_counts()
                if self.breaker is not None
                else {}
            ),
            swallowed_faults=dict(self.fault_counts),
            slo=SLOStatus.from_evaluator(self.slo_evaluator),
        )

    def reset(self) -> None:
        """Forget history and rewind the clock (the trace is unchanged).

        Breaker state is history too — a reset session starts closed.
        """
        self.clock_ms = 0.0
        self.outcomes.clear()
        self.fault_counts.clear()
        self.latency_hist = HistogramStat()
        if self.slo_policy is not None:
            self.slo_evaluator = BurnRateEvaluator(self.slo_policy)
        if self.breaker is not None:
            if (
                self.slo_policy is not None
                and self.slo_policy.degrade_on_alert
            ):
                self.breaker = make_burn_rate_breaker(
                    self.slo_evaluator, self.breaker.config
                )
            else:
                self.breaker = CircuitBreaker(self.breaker.config)
            plan = TreePlan(self.tree, policy=self.policy, breaker=self.breaker)
            plan.load(self._plan.compiled())
            self._plan = plan
