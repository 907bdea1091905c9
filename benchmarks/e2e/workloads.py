"""The four end-to-end workloads and their seeded correctness digests.

Each workload has a set-up step (build the inputs, warm lazy imports and
first-call costs with a small run) and a unit of work the benchmark times
again and again: a scene, a search, a serving pass or a replay pass. Unit
``i`` of a run with seed ``S`` runs with seed ``unit_seed(S, i % cycle)``,
so the median over a run's units averages over up to ``cycle`` seeded
inputs.

A unit returns a digest of its seeded outputs (rewards, memo counts, fork
paths, fault counts) that the benchmark checks against ``golden.json``
for the golden seed, plus the paper's guarantees checked for any seed.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.experiments import common
from repro.experiments.chaos import (
    default_breaker,
    default_fault_schedule,
    default_offload_policy,
)
from repro.experiments.common import ExperimentConfig, build_context, build_environment
from repro.network.scenarios import get_scenario
from repro.obs import SLOPolicy, TraceRecorder, recording
from repro.perf import get_registry
from repro.runtime import emulator
from repro.runtime.engine import TreePlan
from repro.runtime.field import FieldConditions, fieldify
from repro.runtime.session import InferenceSession
from repro.search import tree as tree_search
from repro.search.tree import TreeSearchConfig

#: Seed whose unit digests are pinned in ``golden.json``.
GOLDEN_SEED = 2
#: The serving fixture tree is always searched with this seed, so every
#: workload seed serves the same deployed tree.
FIXTURE_SEED = 2
#: Digest floats are rounded to this many decimals before comparison.
DIGITS = 10

COUNT_NAMES = (
    "runtime.offloads",
    "runtime.fallbacks",
    "runtime.retries",
    "runtime.degraded",
    "obs.slo.alerts",
)


def unit_seed(seed: int, slot: int) -> int:
    """Seed of the unit in cycle ``slot``; runs with different seeds
    share no unit."""
    return 1000 * seed + slot


class Timer:
    """Context manager timing one unit; optionally the tracer's root span."""

    def __init__(self, tracer=None, unit: int = 0) -> None:
        self.tracer = tracer
        self.unit = unit
        self.elapsed_s = 0.0
        self._span = None

    def __enter__(self) -> "Timer":
        if self.tracer is not None:
            self._span = self.tracer.unit_span(self.unit)
            self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed_s = time.perf_counter() - self._start
        if self._span is not None:
            self._span.__exit__(*exc)


@dataclass
class UnitResult:
    """What one timed unit produced."""

    ops: int
    digest: Dict[str, Any]
    counts: Dict[str, int]
    #: Broken guarantees (empty when the unit is correct).
    problems: List[str] = field(default_factory=list)
    #: Per-operation wall seconds, when the unit times each operation.
    op_s: Optional[np.ndarray] = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: What one op is, for ``ops_per_s`` and ``op_p50_us``.
    op: str
    #: Distinct unit seeds per run (and digests per workload in golden.json).
    cycle: int
    #: Units in the traced run.
    traced_units: int
    #: seed -> fixture.
    setup: Callable[[int], Any]
    #: (fixture, unit seed, cycle slot, timer) -> result.
    run_unit: Callable[[Any, int, int, Timer], UnitResult]


def _r(value: float) -> float:
    return round(float(value), DIGITS)


def _outcome_counts(outcomes, alerts: int = 0) -> Dict[str, int]:
    """``COUNT_NAMES`` over the outcomes of one unit."""
    return dict(
        zip(
            COUNT_NAMES,
            (
                sum(o.offloaded for o in outcomes),
                sum(o.fell_back for o in outcomes),
                sum(o.retries for o in outcomes),
                sum(o.degraded for o in outcomes),
                alerts,
            ),
        )
    )


def _memo(stats) -> List[int]:
    return [stats.hits, stats.misses]


# ---------------------------------------------------------------------------
# scenario: run_scenario at the paper defaults (search, then both replays)
# ---------------------------------------------------------------------------
SCENARIO_SCENE = ("vgg11", "phone", "4G (weak) indoor")


def scenario_setup(seed: int):
    scene = get_scenario(*SCENARIO_SCENE)
    common.run_scenario(
        scene,
        ExperimentConfig(
            tree_episodes=2, branch_episodes=3, emulation_requests=20, seed=seed
        ),
    )
    return scene


def scenario_unit(scene, seed: int, slot: int, timer: Timer) -> UnitResult:
    config = ExperimentConfig(seed=seed, emulation_requests=200)
    with timer:
        out = common.run_scenario(scene, config)
    context = out.context
    outcomes = [
        o
        for method in out.methods
        for replay in (method.emulation, method.field)
        for o in replay.outcomes
    ]
    digest = {
        "seed": config.seed,
        "offline": [_r(m.offline_reward) for m in out.methods],
        "replay": [
            [_r(m.emulation.mean_reward), _r(m.field.mean_reward)] for m in out.methods
        ],
        "evaluations": context.evaluations,
        "search_memo": _memo(context.memo_stats()),
        "accuracy_memo": _memo(context.accuracy.stats),
        "compose_memo": _memo(context.composer.stats),
        "nodes": out.tree.plan.tree.node_count(),
    }
    problems = []
    if out.branch.offline_reward < out.surgery.offline_reward - 1e-9:
        problems.append("branch lost to surgery")
    episodes = config.tree_episodes + config.branch_episodes * (
        1 + config.num_bandwidth_types
    )
    return UnitResult(episodes, digest, _outcome_counts(outcomes), problems)


# ---------------------------------------------------------------------------
# search-wide: model_tree_search alone, K=3 and 4 blocks (40-node trees)
# ---------------------------------------------------------------------------
SEARCH_SCENE = ("alexnet", "phone", "WiFi (weak) outdoor")
SEARCH_CONFIG = dict(num_blocks=4, episodes=25, branch_episodes=30)


def search_setup(seed: int):
    scene = get_scenario(*SEARCH_SCENE)
    types = scene.trace(duration_s=120.0).bandwidth_types(3)
    tree_search.model_tree_search(
        build_context(scene),
        types,
        config=TreeSearchConfig(num_blocks=4, episodes=2, branch_episodes=3, seed=seed),
    )
    return scene, types


def search_unit(fixture, seed: int, slot: int, timer: Timer) -> UnitResult:
    scene, types = fixture
    config = TreeSearchConfig(**SEARCH_CONFIG, seed=seed + 3)
    with timer:
        context = build_context(scene)
        result = tree_search.model_tree_search(context, types, config=config)
    branch_best = [r.best_reward for r in result.branch_results.values()]
    digest = {
        "seed": config.seed,
        "best_reward": _r(result.best_reward),
        "expected_reward": _r(result.expected_reward),
        "branch_best": [_r(b) for b in branch_best],
        "evaluations": context.evaluations,
        "search_memo": _memo(context.memo_stats()),
        "nodes": result.tree.node_count(),
    }
    problems = []
    if result.best_reward < max(branch_best) - 1e-6:
        problems.append("tree lost to its best boosting branch")
    episodes = config.episodes + config.branch_episodes * len(types)
    return UnitResult(episodes, digest, _outcome_counts([]), problems)


# ---------------------------------------------------------------------------
# serve / replay-chaos: one deployed tree, served and replayed under faults
# ---------------------------------------------------------------------------
SERVE_SCENE = ("vgg11", "tx2", "4G indoor static")
SERVE_CYCLE = 80
#: Per-pass capacity of the request-time array; a pass that outgrows it
#: doubles it (one 120 s trace needs about 3,100).
PASS_CAPACITY = 8192


@dataclass
class ServingFixture:
    tree: Any
    env: Any
    trace_ms: float
    offsets_ms: np.ndarray


def serving_fixture(seed: int) -> ServingFixture:
    """The deployed tree (searched with ``FIXTURE_SEED``) and its env."""
    scene = get_scenario(*SERVE_SCENE)
    out = common.run_scenario(
        scene,
        ExperimentConfig(tree_episodes=3, branch_episodes=6, seed=FIXTURE_SEED),
        run_emu=False,
        run_field=False,
    )
    env = build_environment(scene, out.context, out.trace)
    trace_ms = out.trace.duration_s * 1e3
    offsets = np.random.default_rng(seed).uniform(0.0, trace_ms, size=SERVE_CYCLE)
    return ServingFixture(out.tree.plan.tree, env, trace_ms, offsets)


def serve_pass(
    fixture: ServingFixture, session_seed: int, offset_ms: float, out_s: np.ndarray
):
    """Back-to-back ``infer()`` calls over one trace length from ``offset_ms``.

    Each call's wall seconds go into ``out_s`` (grown if full). Returns the
    session and the (possibly new) array; the request count is
    ``len(session.outcomes)``.
    """
    session = InferenceSession(fixture.tree, fixture.env, seed=session_seed)
    end_ms = offset_ms + fixture.trace_ms
    n = 0
    at_ms: Optional[float] = offset_ms
    clock = time.perf_counter
    while session.clock_ms < end_ms:
        if n == len(out_s):
            out_s = np.resize(out_s, 2 * n)
        t0 = clock()
        session.infer(at_ms)
        out_s[n] = clock() - t0
        n += 1
        at_ms = None
    return session, out_s


#: Requests per ``serve_block`` (set-up warm-up and probe blocks).
BLOCK = 50


def serve_block(session: InferenceSession, at_ms: Optional[float]) -> float:
    """Wall seconds of ``BLOCK`` back-to-back ``infer()`` calls."""
    start = time.perf_counter()
    session.infer(at_ms)
    for _ in range(BLOCK - 1):
        session.infer()
    return time.perf_counter() - start


def serve_setup(seed: int) -> ServingFixture:
    fixture = serving_fixture(seed)
    serve_block(InferenceSession(fixture.tree, fixture.env, seed=seed), 0.0)
    return fixture


def serve_unit(fixture: ServingFixture, seed: int, slot: int, timer: Timer) -> UnitResult:
    offset = float(fixture.offsets_ms[slot])
    get_registry().reset()
    op_s = np.empty(PASS_CAPACITY)
    with timer:
        session, op_s = serve_pass(fixture, seed, offset, op_s)
    outcomes = session.outcomes
    forks = Counter(".".join(map(str, o.fork_choices)) for o in outcomes)
    digest = {
        "seed": seed,
        "offset_ms": _r(offset),
        "requests": len(outcomes),
        "fork_paths": dict(sorted(forks.items())),
        "offload_rate": _r(np.mean([o.offloaded for o in outcomes])),
        "mean_latency_ms": _r(np.mean([o.latency_ms for o in outcomes])),
    }
    return UnitResult(
        len(outcomes), digest, _outcome_counts(outcomes), op_s=op_s[: len(outcomes)]
    )


REPLAY_CYCLE = 120
REPLAY_REQUESTS = 1200


def replay_setup(seed: int):
    fixture = serving_fixture(seed)
    faulty = default_fault_schedule(fixture.trace_ms).install(
        fieldify(fixture.env, FieldConditions())
    )
    _replay(fixture.tree, faulty, seed, num_requests=100)
    return fixture.tree, faulty


def _replay(tree, env, seed: int, num_requests: int = REPLAY_REQUESTS):
    return emulator.run_emulation(
        TreePlan(tree, policy=default_offload_policy(), breaker=default_breaker()),
        env,
        num_requests=num_requests,
        spacing_ms=100.0,
        queued=True,
        seed=seed,
        slo=SLOPolicy(objective_ms=150.0, degrade_on_alert=True),
    )


def replay_unit(fixture, seed: int, slot: int, timer: Timer) -> UnitResult:
    tree, env = fixture
    get_registry().reset()
    with timer:
        result = _replay(tree, env, seed)
    counts = _outcome_counts(result.outcomes, alerts=result.slo["alerts"])
    digest = {
        "seed": seed,
        "requests": len(result.outcomes),
        **{name.split(".")[-1]: value for name, value in counts.items()},
        "slo_state": result.slo["state"],
        "budget_consumed": _r(result.slo["budget_consumed"]),
        "mean_reward": _r(result.mean_reward),
        "faults": dict(sorted(result.swallowed_faults.items())),
    }
    return UnitResult(len(result.outcomes), digest, counts)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("scenario", "RL episode", 8, 2, scenario_setup, scenario_unit),
        Workload("search-wide", "RL episode", 6, 2, search_setup, search_unit),
        Workload("serve", "infer() call", SERVE_CYCLE, 10, serve_setup, serve_unit),
        Workload(
            "replay-chaos", "replayed request", REPLAY_CYCLE, 15, replay_setup, replay_unit
        ),
    )
}


# ---------------------------------------------------------------------------
# Instrumentation overhead, measured on the serve path
# ---------------------------------------------------------------------------
PROBE_BLOCKS = 100
SHIPPED, RECORDING, REGISTRY_OFF = range(3)


def instrumentation_probes(
    fixture: ServingFixture, seed: int, blocks: int = PROBE_BLOCKS
) -> Dict[str, float]:
    """Per-request cost of the program's own instrumentation on ``serve``.

    Three sessions with the same seed and start serve identical requests
    in lockstep, ``BLOCK`` at a time, one per mode: as shipped, with
    ``repro.obs.recording()`` active, and with the perf registry disabled.
    Interleaving blocks (rotating which mode goes first) cancels machine
    drift, so the differences of the per-mode totals are the costs. The
    disabled recorder's cost is spans per request, counted from the
    recorded blocks, times the measured cost of one disabled span with one
    ``add()``. Block 0 warms up and is not counted.
    """
    registry = get_registry()
    registry.reset()
    offset = float(fixture.offsets_ms[0])
    sessions = [
        InferenceSession(fixture.tree, fixture.env, seed=unit_seed(seed, 0))
        for _ in range(3)
    ]
    total_s = [0.0, 0.0, 0.0]
    spans = 0
    for block in range(blocks + 1):
        at_ms = offset if block == 0 else None
        for turn in range(3):
            mode = (block + turn) % 3
            if mode == RECORDING:
                with recording() as recorder:
                    elapsed = serve_block(sessions[mode], at_ms)
                if block:
                    spans += sum(1 for r in recorder.records if r["kind"] == "span")
            elif mode == REGISTRY_OFF:
                registry.enabled = False
                try:
                    elapsed = serve_block(sessions[mode], at_ms)
                finally:
                    registry.enabled = True
            else:
                elapsed = serve_block(sessions[mode], at_ms)
            if block:
                total_s[mode] += elapsed
    requests = blocks * BLOCK
    off = TraceRecorder(enabled=False)
    repeats = 20000
    start = time.perf_counter()
    for i in range(repeats):
        with off.span("session.infer", index=i) as span:
            span.add(latency_ms=0.0)
    span_us = (time.perf_counter() - start) * 1e6 / repeats
    return {
        "obs.recording_us": (total_s[RECORDING] - total_s[SHIPPED]) * 1e6 / requests,
        "obs.span_off_us": spans / requests * span_us,
        "perf.registry_us": (total_s[SHIPPED] - total_s[REGISTRY_OFF]) * 1e6 / requests,
    }
