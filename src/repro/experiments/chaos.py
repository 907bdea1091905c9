"""Chaos emulation — naive vs resilient offloading under injected faults.

Clean traces flatter every engine. This experiment replays a *mixed* fault
schedule — a cloud outage (with its probe side-channel down), a slow-cloud
brownout, a bandwidth collapse and session-long 10% transfer loss — over
the context-aware model tree, and compares two engines on the same seeded
draws:

- **naive**: today's one-shot semantics — any failed offload pays the
  detect window and finishes the cloud half on the device;
- **resilient**: the :mod:`repro.runtime.resilience` stack — bounded
  retries with exponential backoff, a transfer timeout, and a circuit
  breaker that pins the session edge-only while the cloud is down.

Reported per engine: mean reward, mean/p95 latency, fallback and
deadline-miss rates, retry totals, and the breaker's transition history.
The whole run is deterministic: same seed, same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..network.scenarios import Scenario, get_scenario
from ..obs.trace import span
from ..perf import get_registry
from ..runtime.emulator import EmulationResult, run_emulation
from ..runtime.engine import TreePlan
from ..runtime.pool import PoolTask
from ..runtime.workers import worker_safe
from ..runtime.faults import (
    BandwidthCollapse,
    CloudBrownout,
    CloudOutage,
    FaultSchedule,
    ProbeBlackout,
    TransferLoss,
)
from ..runtime.resilience import CircuitBreaker, CircuitBreakerConfig, OffloadPolicy
from ..search.tree import TreeSearchConfig, model_tree_search
from .common import (
    ExperimentConfig,
    PoolOptions,
    build_context,
    build_environment,
    format_table,
    scenario_task_id,
)


def default_fault_schedule(duration_ms: float) -> FaultSchedule:
    """The standard mixed schedule, scaled to the trace duration.

    An outage (plus probe blackout) covers 15–35% of the session, a 2.5x
    brownout 45–60%, a 6x bandwidth collapse 70–80%, and every transfer
    in the session faces 10% loss.
    """
    d = duration_ms
    return FaultSchedule(
        (
            CloudOutage(0.15 * d, 0.35 * d),
            ProbeBlackout(0.15 * d, 0.35 * d),
            CloudBrownout(0.45 * d, 0.60 * d, latency_multiplier=2.5),
            BandwidthCollapse(0.70 * d, 0.80 * d, slowdown=6.0),
            TransferLoss(0.0, d, loss_probability=0.10),
        )
    )


def default_offload_policy() -> OffloadPolicy:
    """Retry budget tuned for the mixed schedule.

    The short ``probe_timeout_ms`` is the point: a resilient runtime
    health-checks the cloud before committing bytes, so discovering an
    outage costs 50 ms, not the naive engine's full 200 ms detect window.
    """
    return OffloadPolicy(
        max_retries=2,
        backoff_base_ms=25.0,
        backoff_factor=2.0,
        transfer_timeout_ms=1_500.0,
        deadline_ms=2_000.0,
        probe_timeout_ms=50.0,
    )


def default_breaker() -> CircuitBreaker:
    """Trip after two consecutive failures; probe again after 10 s."""
    return CircuitBreaker(
        CircuitBreakerConfig(failure_threshold=2, cooldown_ms=10_000.0)
    )


@dataclass(frozen=True)
class EngineReport:
    """One engine's aggregate behaviour under the fault schedule."""

    name: str
    mean_reward: float
    mean_latency_ms: float
    p95_latency_ms: float
    mean_accuracy: float
    offload_rate: float
    fallback_rate: float
    retry_total: int
    deadline_miss_rate: float
    degraded_rate: float
    #: Absolute event counts — the rates above hide how often the
    #: resilience machinery actually fired on a small request budget.
    fallback_total: int = 0
    degraded_total: int = 0

    @classmethod
    def from_result(cls, name: str, result: EmulationResult) -> "EngineReport":
        outcomes = result.outcomes
        n = max(1, len(outcomes))
        fallback_total = sum(1 for o in outcomes if o.fell_back)
        degraded_total = sum(1 for o in outcomes if o.degraded)
        return cls(
            name=name,
            mean_reward=result.mean_reward,
            mean_latency_ms=result.mean_latency_ms,
            p95_latency_ms=result.p95_latency_ms,
            mean_accuracy=result.mean_accuracy,
            offload_rate=result.offload_rate,
            fallback_rate=fallback_total / n,
            retry_total=sum(o.retries for o in outcomes),
            deadline_miss_rate=sum(1 for o in outcomes if o.deadline_missed) / n,
            degraded_rate=degraded_total / n,
            fallback_total=fallback_total,
            degraded_total=degraded_total,
        )


@dataclass(frozen=True)
class ChaosReport:
    """Naive vs resilient under the same schedule, same seed."""

    scenario: str
    naive: EngineReport
    resilient: EngineReport
    breaker_state: str
    breaker_transitions: Dict[str, int]

    @property
    def reward_gain(self) -> float:
        return self.resilient.mean_reward - self.naive.mean_reward

    @property
    def p95_improvement_ms(self) -> float:
        return self.naive.p95_latency_ms - self.resilient.p95_latency_ms


@worker_safe
def run_chaos(
    config: Optional[ExperimentConfig] = None,
    scenario: Optional[Scenario] = None,
    schedule: Optional[FaultSchedule] = None,
    policy: Optional[OffloadPolicy] = None,
) -> ChaosReport:
    """Search a model tree, then replay it under faults with both engines.

    Marked :func:`~repro.runtime.workers.worker_safe`: one scene's chaos
    replay is a pool task unit (see :func:`run_chaos_fleet`) — fully
    seeded from ``config.seed``, no module state mutated.

    Like :func:`~repro.experiments.common.run_scenario`, the default
    :class:`~repro.perf.PerfRegistry` is scenario-scoped (reset on entry)
    and the whole run records one trace when tracing is enabled.
    """
    config = config or ExperimentConfig()
    scenario = scenario or get_scenario("vgg11", "phone", "4G indoor static")
    with get_registry().scoped(), span("run_chaos", scenario=str(scenario), seed=config.seed):
        context = build_context(scenario)
        trace = scenario.trace(duration_s=config.trace_duration_s)
        types = trace.bandwidth_types(config.num_bandwidth_types)

        with span("scenario.tree"):
            tree_result = model_tree_search(
                context,
                types,
                config=TreeSearchConfig(
                    num_blocks=config.num_blocks,
                    episodes=config.tree_episodes,
                    branch_episodes=config.branch_episodes,
                    seed=config.seed + 3,
                ),
            )
        tree = tree_result.tree

        env = build_environment(scenario, context, trace)
        duration_ms = trace.duration_s * 1e3
        schedule = schedule or default_fault_schedule(duration_ms)
        faulted = schedule.install(env)

        with span("chaos.replay.naive"):
            naive_result = run_emulation(
                TreePlan(tree),
                faulted,
                num_requests=config.emulation_requests,
                seed=config.seed + 11,
            )

        breaker = default_breaker()
        resilient_plan = TreePlan(
            tree, policy=policy or default_offload_policy(), breaker=breaker
        )
        with span("chaos.replay.resilient"):
            resilient_result = run_emulation(
                resilient_plan,
                faulted,
                num_requests=config.emulation_requests,
                seed=config.seed + 11,
            )

    return ChaosReport(
        scenario=str(scenario),
        naive=EngineReport.from_result("naive", naive_result),
        resilient=EngineReport.from_result("resilient", resilient_result),
        breaker_state=breaker.state,
        breaker_transitions=breaker.transition_counts(),
    )


#: Scenes the fleet mode replays (one chaos report per scene).
DEFAULT_FLEET_KEYS: Tuple[Tuple[str, str, str], ...] = (
    ("vgg11", "phone", "4G indoor static"),
    ("vgg11", "phone", "WiFi (weak) indoor"),
    ("vgg11", "tx2", "4G (weak) indoor"),
    ("alexnet", "phone", "WiFi outdoor slow"),
)


def run_chaos_fleet(
    config: Optional[ExperimentConfig] = None,
    scenario_keys: Optional[Sequence[Tuple[str, str, str]]] = None,
    pool_options: Optional[PoolOptions] = None,
) -> List[ChaosReport]:
    """Chaos-replay several scenes, fanned across the fault-tolerant pool.

    Each scene is one :class:`~repro.runtime.pool.PoolTask` running
    :func:`run_chaos`; the pool's own chaos (``WorkerCrash`` & co.) can
    be layered on top, in which case retried scenes still reproduce the
    exact per-scene numbers — everything is seeded from ``config.seed``.
    """
    keys = list(scenario_keys or DEFAULT_FLEET_KEYS)
    scenarios = [get_scenario(*key) for key in keys]
    options = pool_options or PoolOptions()
    if not options.parallel:
        return [run_chaos(config, scenario) for scenario in scenarios]
    tasks = [
        PoolTask(scenario_task_id(s), kwargs={"config": config, "scenario": s})
        for s in scenarios
    ]
    outcome = options.pool().run(run_chaos, tasks, journal_path=options.journal)
    options.last_report = outcome.report
    if options.report_path:
        outcome.report.dump(options.report_path)
    return outcome.require_complete()


def main(
    config: Optional[ExperimentConfig] = None,
    pool_options: Optional[PoolOptions] = None,
) -> ChaosReport:
    if pool_options is not None and pool_options.parallel:
        reports = run_chaos_fleet(config, pool_options=pool_options)
        print(f"Chaos fleet — {len(reports)} scenes, "
              f"{pool_options.workers} workers")
        print(
            format_table(
                ["scenario", "naive R", "resilient R", "gain", "p95 cut ms"],
                [
                    [
                        r.scenario,
                        f"{r.naive.mean_reward:.2f}",
                        f"{r.resilient.mean_reward:.2f}",
                        f"{r.reward_gain:+.2f}",
                        f"{r.p95_improvement_ms:+.1f}",
                    ]
                    for r in reports
                ],
            )
        )
        return reports[0]
    report = run_chaos(config)
    print(f"Chaos replay — {report.scenario}")
    print(
        "Schedule: outage+probe blackout 15-35%, 2.5x brownout 45-60%, "
        "6x bandwidth collapse 70-80%, 10% transfer loss throughout"
    )
    rows = []
    for engine in (report.naive, report.resilient):
        rows.append(
            [
                engine.name,
                f"{engine.mean_reward:.4f}",
                f"{engine.mean_latency_ms:.1f}",
                f"{engine.p95_latency_ms:.1f}",
                f"{engine.offload_rate:.2f}",
                f"{engine.fallback_rate:.2f} ({engine.fallback_total})",
                engine.retry_total,
                f"{engine.deadline_miss_rate:.2f}",
                f"{engine.degraded_rate:.2f} ({engine.degraded_total})",
            ]
        )
    print(
        format_table(
            [
                "engine",
                "reward",
                "mean ms",
                "p95 ms",
                "offload",
                "fallback",
                "retries",
                "ddl miss",
                "degraded",
            ],
            rows,
        )
    )
    print(
        f"resilient vs naive: reward {report.reward_gain:+.4f}, "
        f"p95 {report.p95_improvement_ms:+.1f} ms faster"
    )
    transitions = ", ".join(
        f"{edge} x{count}" for edge, count in sorted(report.breaker_transitions.items())
    )
    total_transitions = sum(report.breaker_transitions.values())
    print(
        f"breaker: state={report.breaker_state} "
        f"transitions={total_transitions} [{transitions or 'no transitions'}]"
    )
    return report
