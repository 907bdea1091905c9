"""Emulation harness — Table IV — and the one request core.

"We run emulation tests with real-world network condition traces and
estimated latencies": inference requests are issued along the trace, each
executed by a plan against the simulated clock; the table reports the mean
reward, latency and accuracy per scene.

Both serving doors (:func:`run_emulation`, ``InferenceSession.infer``)
share one request core: :func:`serve_request` and :func:`record_completion`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..contracts import require_non_negative
from ..obs.slo import BurnRateEvaluator, SLOPolicy
from ..obs.trace import get_recorder, span
from ..perf import get_registry
from .engine import InferenceOutcome, InferencePlan, RuntimeEnvironment, admit_plan
from .faults import FaultError


@dataclass
class EmulationResult:
    """Aggregated outcomes of many inference requests under one plan."""

    outcomes: List[InferenceOutcome] = field(default_factory=list)
    #: Typed environmental faults absorbed per request (exception type
    #: name -> count); the faulted requests re-ran device-only.
    swallowed_faults: Dict[str, int] = field(default_factory=dict)
    #: Burn-rate alerting summary when the run had an ``SLOPolicy``
    #: (:meth:`BurnRateEvaluator.summary`); ``None`` otherwise.
    slo: Optional[Dict[str, Any]] = None

    @property
    def mean_latency_ms(self) -> float:
        return float(np.mean([o.latency_ms for o in self.outcomes]))

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([o.accuracy for o in self.outcomes]))

    @property
    def mean_reward(self) -> float:
        return float(np.mean([o.reward for o in self.outcomes]))

    @property
    def offload_rate(self) -> float:
        return float(np.mean([o.offloaded for o in self.outcomes]))

    @property
    def p95_latency_ms(self) -> float:
        return float(np.percentile([o.latency_ms for o in self.outcomes], 95))

    def __len__(self) -> int:
        return len(self.outcomes)


def device_only(env: RuntimeEnvironment) -> RuntimeEnvironment:
    """``env`` with the cloud out for good: the degraded-retry env."""
    return dataclasses.replace(env, cloud_outages=((0.0, float("inf")),))


def record_fault(
    prefix: str, fault: FaultError, counts: Dict[str, int], *, index: int, where: str
) -> None:
    """Book one absorbed fault: per-type count, registry counter, event."""
    name = type(fault).__name__
    counts[name] = counts.get(name, 0) + 1
    get_registry().count(f"{prefix}.faults_absorbed")
    t_sim_ms = float(getattr(fault, "t_ms", 0.0))
    get_recorder().event(
        f"{prefix}.fault_absorbed", fault=name, index=index, where=where, t_sim_ms=t_sim_ms
    )


def serve_request(
    plan: InferencePlan, start: float, env: RuntimeEnvironment,
    fallback_env: RuntimeEnvironment, rng: np.random.Generator,
    *, name: str, index: int, faults: Dict[str, int],
) -> InferenceOutcome:
    """Serve one request inside span ``name`` — the serving boundary.

    A typed environmental fault is booked (:func:`record_fault`, prefix
    ``name`` up to its first dot) and the request re-runs once on
    ``fallback_env``, so one flaky window cannot void a whole run. A
    fault on that retry, or any non-fault error, propagates: bugs stay
    loud.
    """
    with span(name, index=index, start_sim_ms=start) as obs_span:
        try:
            outcome = plan.execute(start, env, rng)
        except FaultError as fault:
            prefix = name.partition(".")[0]
            record_fault(prefix, fault, faults, index=index, where="plan.execute")
            obs_span.add(degraded_by_fault=type(fault).__name__)
            outcome = plan.execute(start, fallback_env, rng)
        obs_span.add(
            latency_ms=outcome.latency_ms,
            fork_path=list(outcome.fork_choices),
            offloaded=outcome.offloaded,
            fell_back=outcome.fell_back,
            retries=outcome.retries,
            degraded=outcome.degraded,
            reward=outcome.reward,
        )
    return outcome


def record_completion(
    name: str, outcome: InferenceOutcome, evaluator: Optional[BurnRateEvaluator]
) -> None:
    """Feed a finished request's latency to ``<name>.latency_ms`` and the
    SLO, keyed on its *simulated* completion time (windowed slabs keep
    brownout spikes visible inside long runs)."""
    done_ms = outcome.start_ms + outcome.latency_ms
    get_registry().observe_at(f"{name}.latency_ms", outcome.latency_ms, t_ms=done_ms)
    if evaluator is not None:
        evaluator.observe(outcome.latency_ms, t_ms=done_ms)


def run_emulation(
    plan: InferencePlan,
    env: RuntimeEnvironment,
    num_requests: int = 50,
    seed: int = 0,
    spacing_ms: float = 0.0,
    queued: bool = False,
    pipelined: bool = False,
    admit: bool = True,
    slo: Optional[SLOPolicy] = None,
) -> EmulationResult:
    """Issue ``num_requests`` inferences at times spread across the trace.

    ``spacing_ms == 0`` spreads requests uniformly over the trace duration;
    a positive value issues them back-to-back with that gap (a streaming
    workload).

    ``queued=True`` models a single-inference-at-a-time device (the
    continuous-vision setting the paper's motivation cites): a request
    cannot start before the previous one finished, and its reported latency
    includes the queueing delay. Under overload, queued latencies grow
    without bound — which is exactly why cutting per-inference latency
    matters for streaming workloads.

    ``pipelined=True`` (with ``queued``) releases the device as soon as a
    request's *edge* portion finishes: the transfer and cloud compute
    overlap with the next request's local work. This is offloading's
    throughput advantage — a partitioned plan can sustain frame rates a
    full-on-device plan cannot, even at similar per-request latency.

    ``admit=True`` (the default) statically verifies the plan with
    :func:`~repro.runtime.engine.admit_plan` before the first request.

    ``slo`` attaches a burn-rate evaluator: every request's simulated
    completion feeds the fast/slow windows, alert transitions land in
    the trace, and the final state is returned as ``result.slo``.
    """
    require_non_negative(spacing_ms, "spacing_ms")
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if admit:
        admit_plan(plan)
    rng = np.random.default_rng(seed)
    result = EmulationResult()
    duration_ms = env.trace.duration_s * 1e3

    if spacing_ms > 0:
        arrival_times = [i * spacing_ms for i in range(num_requests)]
    else:
        arrival_times = list(np.linspace(0.0, duration_ms * 0.9, num_requests))

    evaluator = BurnRateEvaluator(slo) if slo is not None else None
    fallback_env = device_only(env)
    device_free_ms = 0.0
    for index, arrival in enumerate(arrival_times):
        start = max(float(arrival), device_free_ms) if queued else float(arrival)
        get_registry().count_at("emulator.requests", t_ms=start)
        outcome = serve_request(
            plan, start, env, fallback_env, rng,
            name="emulator.request", index=index,
            faults=result.swallowed_faults,
        )
        if queued:
            completion = start + outcome.latency_ms
            if pipelined:
                # The device is busy only for the local portion; the
                # transfer + cloud tail overlaps with the next request.
                device_free_ms = start + outcome.edge_ms
            else:
                device_free_ms = completion
            queueing_delay = start - float(arrival)
            if queueing_delay > 0:
                # dataclasses.replace keeps every other outcome field
                # (fell_back, retries, ...) — rebuilding by hand silently
                # dropped fields added after the original list was written.
                outcome = dataclasses.replace(
                    outcome,
                    start_ms=float(arrival),
                    latency_ms=outcome.latency_ms + queueing_delay,
                    reward=env.reward.reward(
                        outcome.accuracy, outcome.latency_ms + queueing_delay
                    ),
                )
        # End-to-end (post-queueing) latency, so the exported percentiles
        # match what the application would observe.
        record_completion("emulator.request", outcome, evaluator)
        result.outcomes.append(outcome)
    if evaluator is not None:
        result.slo = evaluator.summary()
    return result
