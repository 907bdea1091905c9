"""Failure-injection tests: cloud outages and on-device fallback."""

import numpy as np
import pytest

from repro.accuracy import FixedAccuracy
from repro.latency import CLOUD_SERVER, XIAOMI_MI_6X
from repro.latency.transfer import WIFI_TRANSFER
from repro.mdp import PAPER_REWARD
from repro.network.channel import Channel
from repro.network.traces import constant_trace
from repro.nn.zoo import vgg11
from repro.runtime.emulator import run_emulation
from repro.runtime.engine import FixedPlan, RuntimeEnvironment, TreePlan
from repro.runtime.session import InferenceSession
from repro.search.tree import TreeSearchConfig, model_tree_search
from tests.conftest import make_context, make_split_tree


def make_env(accuracy=None, outages=(), detect_ms=200.0):
    trace = constant_trace(10.0, duration_s=60.0)
    return RuntimeEnvironment(
        edge=XIAOMI_MI_6X,
        cloud=CLOUD_SERVER,
        trace=trace,
        channel=Channel(trace, WIFI_TRANSFER),
        accuracy=accuracy or FixedAccuracy(0.9201),
        reward=PAPER_REWARD,
        cloud_outages=tuple(outages),
        outage_detect_ms=detect_ms,
    )


@pytest.fixture
def base():
    return vgg11()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestCloudAvailability:
    def test_no_outages_always_available(self):
        env = make_env()
        assert env.cloud_available(0.0)
        assert env.cloud_available(1e6)

    def test_window_semantics(self):
        env = make_env(outages=[(100.0, 200.0)])
        assert env.cloud_available(99.9)
        assert not env.cloud_available(100.0)
        assert not env.cloud_available(199.9)
        assert env.cloud_available(200.0)

    def test_multiple_windows(self):
        env = make_env(outages=[(0.0, 10.0), (50.0, 60.0)])
        assert not env.cloud_available(5.0)
        assert env.cloud_available(30.0)
        assert not env.cloud_available(55.0)


class TestOutageBoundarySemantics:
    """Regression pins for the half-open ``start <= t < end`` contract."""

    def test_start_inclusive_end_exclusive(self):
        env = make_env(outages=[(100.0, 200.0)])
        assert not env.cloud_available(100.0)  # start is in the window
        assert env.cloud_available(200.0)  # end is not

    def test_zero_length_window_is_noop(self):
        env = make_env(outages=[(100.0, 100.0)])
        assert env.cloud_available(100.0)
        assert env.cloud_available(99.9)

    def test_inverted_window_is_noop(self):
        # A reversed window can never satisfy start <= t < end; make sure
        # no implementation shortcut accidentally treats it as "always".
        env = make_env(outages=[(200.0, 100.0)])
        assert env.cloud_available(150.0)
        assert env.cloud_available(200.0)

    def test_offload_landing_exactly_at_end_succeeds(self, base, rng):
        env = make_env(outages=[(0.0, 500.0)])
        outcome = FixedPlan(None, base).execute(500.0, env, rng)
        assert outcome.offloaded
        assert not outcome.fell_back

    def test_offload_landing_exactly_at_start_fails(self, base, rng):
        env = make_env(outages=[(500.0, 1_000.0)])
        outcome = FixedPlan(None, base).execute(500.0, env, rng)
        assert outcome.fell_back
        assert not outcome.offloaded


class TestFixedPlanFallback:
    def test_outage_triggers_fallback(self, base, rng):
        env = make_env(outages=[(0.0, 10_000.0)])
        outcome = FixedPlan(None, base).execute(0.0, env, rng)
        assert outcome.fell_back
        assert not outcome.offloaded
        assert outcome.transfer_ms == 0.0
        assert outcome.cloud_ms == 0.0
        # Fallback pays the detect penalty plus full on-device compute.
        assert outcome.latency_ms >= 200.0

    def test_fallback_latency_composition(self, base, rng):
        env = make_env(outages=[(0.0, 10_000.0)], detect_ms=123.0)
        outcome = FixedPlan(None, base).execute(0.0, env, rng)
        expected = 123.0 + XIAOMI_MI_6X.model_latency_ms(base)
        assert outcome.latency_ms == pytest.approx(expected)

    def test_no_fallback_for_edge_only_plan(self, base, rng):
        env = make_env(outages=[(0.0, 10_000.0)])
        outcome = FixedPlan(base, None).execute(0.0, env, rng)
        assert not outcome.fell_back
        assert outcome.latency_ms < 100.0

    def test_inference_after_recovery_normal(self, base, rng):
        env = make_env(outages=[(0.0, 1_000.0)])
        outcome = FixedPlan(None, base).execute(2_000.0, env, rng)
        assert not outcome.fell_back
        assert outcome.offloaded

    def test_accuracy_unchanged_by_fallback(self, base, rng):
        """The same composed model runs either way — only latency suffers."""
        env = make_env(outages=[(0.0, 10_000.0)])
        fallback = FixedPlan(None, base).execute(0.0, env, rng)
        normal = FixedPlan(None, base).execute(20_000.0, env, np.random.default_rng(0))
        assert fallback.accuracy == normal.accuracy


class TestTreePlanFallback:
    @pytest.fixture(scope="class")
    def tree(self):
        context = make_context(vgg11(), 0.9201)
        config = TreeSearchConfig(num_blocks=3, episodes=3, branch_episodes=6, seed=0)
        return model_tree_search(context, [5.0, 20.0], config=config).tree

    def test_tree_survives_outage(self, tree, rng):
        context = make_context(vgg11(), 0.9201)
        env = make_env(accuracy=context.accuracy, outages=[(0.0, 60_000.0)])
        outcome = TreePlan(tree).execute(0.0, env, rng)
        # Inference always completes; if its branch offloads it falls back.
        assert outcome.latency_ms > 0
        assert not outcome.offloaded or not outcome.fell_back

    def test_emulation_counts_fallbacks(self, base):
        env = make_env(outages=[(0.0, 30_000.0)])
        result = run_emulation(
            FixedPlan(None, base), env, num_requests=10, seed=0, spacing_ms=6_000.0
        )
        fallbacks = sum(1 for o in result.outcomes if o.fell_back)
        assert 0 < fallbacks < 10  # the outage covers part of the session

    def test_tree_fallback_latency_composition(self, rng):
        """The tree's fallback pays detect + full edge run of the cloud half."""
        base = vgg11()
        tree = make_split_tree(base, split=4)
        env = make_env(outages=[(0.0, 1e6)], detect_ms=150.0)
        outcome = TreePlan(tree).execute(0.0, env, rng)
        assert outcome.fell_back
        assert not outcome.offloaded
        edge_half_ms = XIAOMI_MI_6X.model_latency_ms(base.slice(0, 4))
        cloud_half_on_edge_ms = XIAOMI_MI_6X.model_latency_ms(
            base.slice(4, len(base))
        )
        assert outcome.latency_ms == pytest.approx(
            edge_half_ms + 150.0 + cloud_half_on_edge_ms
        )
        assert outcome.edge_ms == pytest.approx(
            edge_half_ms + cloud_half_on_edge_ms
        )
        assert outcome.transfer_ms == 0.0
        assert outcome.cloud_ms == 0.0

    def test_fixed_plan_fallback_with_edge_half(self, rng):
        """Same composition through FixedPlan, with a nonzero edge half."""
        base = vgg11()
        plan = FixedPlan(base.slice(0, 4), base.slice(4, len(base)))
        env = make_env(outages=[(0.0, 1e6)], detect_ms=150.0)
        outcome = plan.execute(0.0, env, rng)
        assert outcome.fell_back
        assert not outcome.offloaded
        expected = (
            XIAOMI_MI_6X.model_latency_ms(base.slice(0, 4))
            + 150.0
            + XIAOMI_MI_6X.model_latency_ms(base.slice(4, len(base)))
        )
        assert outcome.latency_ms == pytest.approx(expected)

    def test_session_fallback_rate_reflects_outages(self):
        tree = make_split_tree(vgg11())
        env = make_env(outages=[(0.0, 5_000.0)])
        session = InferenceSession(tree, env, seed=0)
        for i in range(10):
            session.infer(at_ms=float(i) * 2_000.0)
        stats = session.stats()
        expected = float(
            np.mean([o.fell_back for o in session.outcomes])
        )
        assert stats.fallback_rate == pytest.approx(expected)
        assert 0.0 < stats.fallback_rate < 1.0

    def test_queued_emulation_preserves_fallback_flag(self, base):
        """The queue-delay rebuild must not drop outcome fields."""
        env = make_env(outages=[(0.0, 60_000.0)])
        result = run_emulation(
            FixedPlan(None, base),
            env,
            num_requests=5,
            seed=0,
            spacing_ms=10.0,
            queued=True,
        )
        # Requests queue behind the slow fallbacks, so the rebuilt
        # (queue-delayed) outcomes must still carry fell_back=True.
        assert all(o.fell_back for o in result.outcomes)
