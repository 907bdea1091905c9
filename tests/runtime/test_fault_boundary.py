"""Fault-boundary accounting: one absorbed fault is counted exactly once.

Both serving boundaries (``run_emulation`` and ``InferenceSession``)
absorb a typed :class:`FaultError`, count it, and retry the request
against a degraded device-only environment. A fault raised *during that
degraded retry* must propagate — and must NOT be counted a second time:
the books say "one fault absorbed", the exception says "and then the
degraded path failed too".
"""

import pytest

from repro.accuracy import FixedAccuracy
from repro.latency import CLOUD_SERVER, XIAOMI_MI_6X
from repro.latency.transfer import WIFI_TRANSFER
from repro.mdp import PAPER_REWARD
from repro.network.channel import Channel
from repro.network.traces import constant_trace
from repro.nn.zoo import vgg11
from repro.obs import recording
from repro.perf import get_registry
from repro.runtime.emulator import run_emulation
from repro.runtime.engine import RuntimeEnvironment
from repro.runtime.faults import CloudUnreachableError
from repro.runtime.session import InferenceSession
from repro.search.tree import TreeSearchConfig, model_tree_search
from tests.conftest import make_context


@pytest.fixture(scope="module")
def tree():
    context = make_context(vgg11(), 0.9201)
    config = TreeSearchConfig(num_blocks=3, episodes=3, branch_episodes=6, seed=0)
    return model_tree_search(context, [5.0, 20.0], config=config).tree


@pytest.fixture
def env():
    trace = constant_trace(10.0, duration_s=60.0)
    return RuntimeEnvironment(
        edge=XIAOMI_MI_6X,
        cloud=CLOUD_SERVER,
        trace=trace,
        channel=Channel(trace, WIFI_TRANSFER),
        accuracy=FixedAccuracy(0.9201),
        reward=PAPER_REWARD,
    )


class _AlwaysFaultingPlan:
    """Raises a typed fault on every execute — including degraded retry."""

    def __init__(self):
        self.calls = 0

    def execute(self, start, env, rng):
        self.calls += 1
        raise CloudUnreachableError("cloud down", t_ms=float(start))


class _FaultOncePlan:
    """Faults the first execute only; afterwards delegates to a real plan."""

    def __init__(self, real_plan):
        self.real_plan = real_plan
        self.calls = 0

    def execute(self, start, env, rng):
        self.calls += 1
        if self.calls == 1:
            raise CloudUnreachableError("transient", t_ms=float(start))
        return self.real_plan.execute(start, env, rng)


class TestEmulatorBoundary:
    def test_fault_on_degraded_retry_counted_once_then_raises(self, env):
        plan = _AlwaysFaultingPlan()
        with get_registry().scoped() as perf:
            with pytest.raises(CloudUnreachableError):
                run_emulation(plan, env, num_requests=3, seed=0)
            # One original fault absorbed; the degraded-retry fault
            # propagated without being booked as a second absorption.
            assert perf.counter("emulator.faults_absorbed") == 1
        assert plan.calls == 2  # original attempt + degraded retry

    def test_transient_fault_counted_once_and_run_completes(self, tree, env):
        from repro.runtime.engine import TreePlan

        plan = _FaultOncePlan(TreePlan(tree))
        with get_registry().scoped() as perf:
            result = run_emulation(plan, env, num_requests=3, seed=0)
            assert perf.counter("emulator.faults_absorbed") == 1
        assert result.swallowed_faults == {"CloudUnreachableError": 1}
        assert len(result) == 3
        # request 0: fault + degraded retry; requests 1-2: one call each.
        assert plan.calls == 4


class TestSessionBoundary:
    def test_fault_on_degraded_retry_counted_once_then_raises(self, tree, env):
        session = InferenceSession(tree, env)
        session._plan = _AlwaysFaultingPlan()
        with pytest.raises(CloudUnreachableError):
            session.infer()
        assert session.fault_counts == {"CloudUnreachableError": 1}
        assert session._plan.calls == 2
        # The failed request never made it into the history.
        assert not session.outcomes

    def test_transient_fault_counted_once_and_request_served(self, tree, env):
        session = InferenceSession(tree, env)
        session._plan = _FaultOncePlan(session._plan)
        outcome = session.infer()
        assert outcome.latency_ms > 0
        assert session.fault_counts == {"CloudUnreachableError": 1}
        assert session._plan.calls == 2
        assert session.stats().swallowed_faults == {"CloudUnreachableError": 1}

    def test_absorbed_fault_counted_in_registry(self, tree, env):
        session = InferenceSession(tree, env)
        session._plan = _FaultOncePlan(session._plan)
        with get_registry().scoped():
            session.infer()
            assert get_registry().counter("session.faults_absorbed") == 1

    def test_retry_fault_counted_once_in_registry(self, tree, env):
        session = InferenceSession(tree, env)
        session._plan = _AlwaysFaultingPlan()
        with get_registry().scoped():
            with pytest.raises(CloudUnreachableError):
                session.infer()
            assert get_registry().counter("session.faults_absorbed") == 1


#: The request-span and fault-event schema both serving doors record,
#: with the door's prefix (``emulator.`` / ``session.``) stripped.
CLEAN_SPAN_FIELDS = [
    "degraded",
    "fell_back",
    "fork_path",
    "index",
    "latency_ms",
    "offloaded",
    "retries",
    "reward",
    "start_sim_ms",
]
FAULTED_SPAN_FIELDS = sorted(CLEAN_SPAN_FIELDS + ["degraded_by_fault"])
FAULT_EVENT_FIELDS = ["fault", "index", "t_sim_ms", "where"]


def _schema(records, prefix):
    """(name, sorted field keys) of every span/event, prefix stripped."""
    out = []
    for record in records:
        name = record["name"]
        assert name.startswith(prefix + "."), name
        out.append(
            (record["kind"], name[len(prefix) + 1:], sorted(record["fields"]))
        )
    return out


class TestTraceSchema:
    """One clean and one fault-absorbed request through each door."""

    GOLDEN = [
        ("event", "fault_absorbed", FAULT_EVENT_FIELDS),
        ("span", "request", FAULTED_SPAN_FIELDS),
        ("span", "request", CLEAN_SPAN_FIELDS),
    ]

    def test_emulator_schema(self, tree, env):
        from repro.runtime.engine import TreePlan

        plan = _FaultOncePlan(TreePlan(tree))
        with recording() as recorder:
            run_emulation(plan, env, num_requests=2, seed=0)
        assert _schema(recorder.records, "emulator") == self.GOLDEN
        event, faulted, _ = recorder.records
        assert event["span"] == faulted["span"]
        assert event["fields"]["where"] == "plan.execute"

    def test_session_schema(self, tree, env):
        session = InferenceSession(tree, env)
        session._plan = _FaultOncePlan(session._plan)
        with recording() as recorder:
            session.infer()
            session.infer()
        golden = [
            (kind, "infer" if name == "request" else name, fields)
            for kind, name, fields in self.GOLDEN
        ]
        assert _schema(recorder.records, "session") == golden
        event, faulted, _ = recorder.records
        assert event["span"] == faulted["span"]
        assert event["fields"]["where"] == "plan.execute"


@pytest.fixture(scope="module")
def deployed():
    """A searched tree that forks and offloads, and its scene's field env."""
    from repro.experiments.common import (
        ExperimentConfig,
        build_environment,
        run_scenario,
    )
    from repro.network.scenarios import get_scenario
    from repro.runtime.field import fieldify

    scene = get_scenario("vgg11", "tx2", "4G indoor static")
    out = run_scenario(
        scene,
        ExperimentConfig(tree_episodes=3, branch_episodes=6, seed=2),
        run_emu=False,
        run_field=False,
    )
    env = fieldify(build_environment(scene, out.context, out.trace))
    return out.tree.plan.tree, env


class TestDoorParity:
    """Same tree, env and seed: both doors serve identical requests."""

    SPACING_MS = 1000.0
    REQUESTS = 108

    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "chaos"])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_emulation_equals_session(self, deployed, seed, faulted):
        from repro.experiments.chaos import default_fault_schedule
        from repro.runtime.engine import TreePlan

        tree, env = deployed
        if faulted:
            env = default_fault_schedule(env.trace.duration_s * 1e3).install(env)
        spacing = self.SPACING_MS
        assert self.REQUESTS * spacing <= env.trace.duration_s * 1e3
        emulated = run_emulation(
            TreePlan(tree), env, num_requests=self.REQUESTS,
            spacing_ms=spacing, seed=seed,
        )
        session = InferenceSession(tree, env, seed=seed)
        served = [session.infer(at_ms=i * spacing) for i in range(self.REQUESTS)]
        # Every request finishes before the next arrival, so the session
        # clock never delays a start and both doors see the same times.
        assert max(o.latency_ms for o in served) < spacing
        assert len({o.fork_choices for o in served}) > 1
        assert any(o.offloaded for o in served)
        assert emulated.outcomes == served
        assert emulated.swallowed_faults == session.fault_counts
