"""Shared infrastructure for the experiment reproductions.

Each table/figure module builds on :func:`run_scenario`: one evaluation
scene is searched offline by all three methods (Dynamic DNN Surgery, optimal
branch, model tree) and then replayed through the emulation and field
harnesses. Results carry everything the corresponding paper table reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..runtime.faults import PoolChaos
from ..runtime.pool import FaultTolerantPool, PoolConfig, PoolReport, PoolTask

from ..accuracy.base import MemoizedEvaluator
from ..accuracy.surrogate import PAPER_BASE_ACCURACY, SurrogateAccuracyModel
from ..compression import default_registry
from ..latency.compute import LatencyEstimator
from ..latency.devices import CLOUD_SERVER
from ..mdp.reward import PAPER_REWARD
from ..network.channel import Channel
from ..network.scenarios import Scenario
from ..network.traces import BandwidthTrace
from ..nn.zoo import get_model
from ..obs.slo import SLOPolicy
from ..obs.trace import get_recorder, span
from ..perf import get_registry
from ..runtime.emulator import EmulationResult, run_emulation
from ..runtime.engine import FixedPlan, RuntimeEnvironment, TreePlan
from ..runtime.workers import worker_safe
from ..runtime.field import FieldConditions, fieldify
from ..search.branch import BranchPlan, optimal_branch_search, realize_branch_plan
from ..search.baselines import dynamic_dnn_surgery
from ..search.context import SearchContext
from ..search.policies import RLPolicy
from ..search.tree import ModelTree, TreeSearchConfig, model_tree_search


@dataclass
class ExperimentConfig:
    """Knobs shared by all experiment reproductions.

    The defaults match the paper's setup (N = 3 blocks, K = 2 bandwidth
    types); episode counts are sized for minutes-scale runs — raise them for
    higher-fidelity searches.
    """

    num_blocks: int = 3
    num_bandwidth_types: int = 2
    tree_episodes: int = 25
    branch_episodes: int = 30
    emulation_requests: int = 40
    trace_duration_s: float = 120.0
    seed: int = 0
    #: Optional latency SLO: replays get a burn-rate evaluator, alert
    #: transitions land in the trace, summaries in ``EmulationResult.slo``.
    slo: Optional["SLOPolicy"] = None


@dataclass
class MethodOutcome:
    """One search method's offline solution and runtime replays."""

    name: str
    offline_reward: float
    plan: object  # FixedPlan or TreePlan
    emulation: Optional[EmulationResult] = None
    field: Optional[EmulationResult] = None


@dataclass
class ScenarioOutcome:
    """Everything measured for one evaluation scene."""

    scenario: Scenario
    trace: BandwidthTrace
    bandwidth_types: List[float]
    surgery: MethodOutcome
    branch: MethodOutcome
    tree: MethodOutcome
    context: SearchContext = field(repr=False, default=None)

    @property
    def methods(self) -> List[MethodOutcome]:
        return [self.surgery, self.branch, self.tree]


def build_context(scenario: Scenario) -> SearchContext:
    """Search context (base model + models of Sec. V) for one scene."""
    base = get_model(scenario.model_name)
    registry = default_registry()
    estimator = LatencyEstimator(
        edge=scenario.device,
        cloud=CLOUD_SERVER,
        transfer=scenario.transfer_model,
    )
    accuracy = MemoizedEvaluator(
        SurrogateAccuracyModel(
            base, PAPER_BASE_ACCURACY.get(scenario.model_name, 0.92)
        )
    )
    return SearchContext(base, registry, estimator, accuracy, PAPER_REWARD)


def build_environment(
    scenario: Scenario,
    context: SearchContext,
    trace: BandwidthTrace,
) -> RuntimeEnvironment:
    return RuntimeEnvironment(
        edge=scenario.device,
        cloud=CLOUD_SERVER,
        trace=trace,
        channel=Channel(trace, scenario.transfer_model),
        accuracy=context.accuracy,
        reward=PAPER_REWARD,
    )


@worker_safe
def run_scenario(
    scenario: Scenario,
    config: Optional[ExperimentConfig] = None,
    run_field: bool = True,
    run_emu: bool = True,
) -> ScenarioOutcome:
    """Search offline and replay online for one scene (one table row).

    The process-wide :class:`~repro.perf.PerfRegistry` is scenario-scoped:
    it is reset on entry (``scoped()``), so multi-scenario runs never mix
    counters/spans/histograms across scenes. One observability trace
    (root span ``run_scenario``) covers the whole scene when tracing is
    enabled via :func:`repro.obs.recording`. Marked
    :func:`~repro.runtime.workers.worker_safe`: one scene is the unit the
    multiprocessing fan-out maps over, and every random stream below is
    seeded from ``config.seed``.
    """
    config = config or ExperimentConfig()
    with get_registry().scoped(), span(
        "run_scenario",
        scenario=str(scenario),
        model=scenario.model_name,
        device=scenario.device_name,
        environment=scenario.environment,
        seed=config.seed,
    ) as root:
        outcome = _run_scenario_scoped(scenario, config, run_field, run_emu)
        root.add(bandwidth_types=[round(t, 3) for t in outcome.bandwidth_types])
    return outcome


def _run_scenario_scoped(
    scenario: Scenario,
    config: ExperimentConfig,
    run_field: bool,
    run_emu: bool,
) -> ScenarioOutcome:
    context = build_context(scenario)
    trace = scenario.trace(duration_s=config.trace_duration_s)
    types = trace.bandwidth_types(config.num_bandwidth_types)
    median_bandwidth = float(np.median(trace.samples))

    # Offline rewards are the *expected* reward over the K context types
    # (each equally likely — the distribution the tree's backward estimation
    # assumes), so the three methods are compared on one scale.
    def expected_plan_reward(plan: BranchPlan) -> float:
        return float(
            np.mean(
                [realize_branch_plan(context, plan, w).reward for w in types]
            )
        )

    # --- offline: the three methods -----------------------------------
    with span("scenario.surgery"):
        surgery_result = dynamic_dnn_surgery(context, median_bandwidth)
    surgery_plan = BranchPlan(
        surgery_result.partition_index,
        tuple(["ID"] * surgery_result.partition_index),
    )
    surgery = MethodOutcome(
        name="surgery",
        offline_reward=expected_plan_reward(surgery_plan),
        plan=FixedPlan(
            surgery_result.result.edge_spec, surgery_result.result.cloud_spec
        ),
    )

    # The optimal branch is one static plan for the whole scene. The RL
    # search proposes candidates; the deployed plan is the candidate with
    # the best expected reward (the search space strictly contains every
    # pure partition, so the branch can never lose to surgery).
    branch_policy = RLPolicy(context.registry, seed=config.seed + 1)
    with span("scenario.branch", bandwidth_mbps=median_bandwidth):
        branch_result = optimal_branch_search(
            context,
            median_bandwidth,
            branch_policy,
            episodes=config.branch_episodes,
            seed=config.seed + 2,
        )
    branch_candidates = [branch_result.plan, surgery_plan] + [
        BranchPlan(p, tuple(["ID"] * p)) for p in range(len(context.base) + 1)
    ]
    branch_plan = max(branch_candidates, key=expected_plan_reward)
    branch_realized = realize_branch_plan(context, branch_plan, median_bandwidth)
    branch = MethodOutcome(
        name="branch",
        offline_reward=expected_plan_reward(branch_plan),
        plan=FixedPlan(branch_realized.edge_spec, branch_realized.cloud_spec),
    )

    with span("scenario.tree"):
        tree_result = model_tree_search(
            context,
            types,
            config=TreeSearchConfig(
                num_blocks=config.num_blocks,
                episodes=config.tree_episodes,
                branch_episodes=config.branch_episodes,
                extra_plans=(branch_plan,),
                seed=config.seed + 3,
            ),
        )
    tree = MethodOutcome(
        name="tree",
        offline_reward=tree_result.expected_reward,
        plan=TreePlan(tree_result.tree),
    )

    # --- online: emulation and field replays ---------------------------
    if run_emu or run_field:
        env = build_environment(scenario, context, trace)
        with span("scenario.replay"):
            for method in (surgery, branch, tree):
                if run_emu:
                    with span("scenario.replay.emulation", method=method.name):
                        method.emulation = run_emulation(
                            method.plan,
                            env,
                            num_requests=config.emulation_requests,
                            seed=config.seed + 11,
                            slo=config.slo,
                        )
                if run_field:
                    field_env = fieldify(env, FieldConditions())
                    with span("scenario.replay.field", method=method.name):
                        method.field = run_emulation(
                            method.plan,
                            field_env,
                            num_requests=config.emulation_requests,
                            seed=config.seed + 13,
                            slo=config.slo,
                        )

    _record_cache_stats(context)
    return ScenarioOutcome(
        scenario=scenario,
        trace=trace,
        bandwidth_types=types,
        surgery=surgery,
        branch=branch,
        tree=tree,
        context=context,
    )


def _record_cache_stats(context: SearchContext) -> None:
    """Emit one ``memo.stats`` trace event per cache the scene exercised.

    Cumulative snapshots taken at scene end — ``repro obs report`` renders
    the last event per cache name as the scene's cache telemetry.
    """
    recorder = get_recorder()
    if not recorder.enabled:
        return
    pools = {
        "search.memo": context.memo_stats(),
        "accuracy.memo": context.accuracy.stats,
        "compose.memo": context.composer.stats,
    }
    for cache, stats in pools.items():
        recorder.event("memo.stats", cache=cache, **stats.to_dict())


# ---------------------------------------------------------------------------
# Parallel fan-out over scenes
# ---------------------------------------------------------------------------
def scenario_task_id(scenario: Scenario) -> str:
    """Stable journal/chaos key for one scene."""
    return f"{scenario.model_name}|{scenario.device_name}|{scenario.environment}"


@dataclass
class PoolOptions:
    """CLI-facing knobs for the fault-tolerant sweep fan-out.

    ``workers <= 1`` means serial in-process execution (the historical
    path); anything above fans scenes/cells across a
    :class:`~repro.runtime.pool.FaultTolerantPool`. ``journal`` makes the
    run resumable; ``report_path`` persists the pool's robustness +
    merged-telemetry report; ``chaos`` injects pool faults (tests/CI);
    ``trace_dir`` streams one observability trace per task so ``repro
    obs report`` over the directory reproduces the serial run's view.
    """

    workers: int = 0
    journal: Optional[str] = None
    report_path: Optional[str] = None
    chaos: Optional[PoolChaos] = None
    trace_dir: Optional[str] = None

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def map(self, fn: Callable[..., Any], tasks: Sequence[PoolTask]) -> List[Any]:
        """``fn`` over ``tasks``, results in task order.

        Serial runs call ``fn`` in-process. Parallel runs go through the
        pool, keep its report in :attr:`last_report` (and write it to
        ``report_path``), and raise if any task was quarantined.
        """
        if not self.parallel:
            return [fn(*task.args, **task.kwargs) for task in tasks]
        pool = FaultTolerantPool(
            PoolConfig(num_workers=self.workers, trace_dir=self.trace_dir),
            chaos=self.chaos,
        )
        outcome = pool.run(fn, tasks, journal_path=self.journal)
        self.last_report = outcome.report
        if self.report_path:
            outcome.report.dump(self.report_path)
        return outcome.require_complete()

    #: Pool report of the most recent fan-out (for tests/telemetry).
    last_report: Optional[PoolReport] = None


def run_scenarios(
    scenarios: Sequence[Scenario],
    config: Optional[ExperimentConfig] = None,
    run_field: bool = True,
    run_emu: bool = True,
    pool_options: Optional[PoolOptions] = None,
) -> List[ScenarioOutcome]:
    """Run :func:`run_scenario` over many scenes, serially or fanned out.

    The parallel path is deterministic: every stream inside a scene is
    seeded from ``config.seed``, so worker count, retries and scheduling
    cannot change the numbers — a chaos-injected parallel sweep must
    produce results identical to the serial run.
    """
    tasks = [
        PoolTask(
            scenario_task_id(s),
            args=(s, config),
            kwargs={"run_field": run_field, "run_emu": run_emu},
        )
        for s in scenarios
    ]
    return (pool_options or PoolOptions()).map(run_scenario, tasks)


# ---------------------------------------------------------------------------
# Plain-text table rendering
# ---------------------------------------------------------------------------
def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if r == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    return "\n".join(lines)
