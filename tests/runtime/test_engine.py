"""Tests for the online runtime: plans, emulation, field harness."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.latency.devices import CLOUD_SERVER, XIAOMI_MI_6X
from repro.latency.transfer import CELLULAR_TRANSFER
from repro.mdp import PAPER_REWARD
from repro.model.spec import ModelSpec
from repro.network.channel import Channel
from repro.network.traces import BandwidthTrace, constant_trace
from repro.nn.zoo import tiny_cnn
from repro.runtime.emulator import run_emulation
from repro.runtime.engine import FixedPlan, RuntimeEnvironment, TreePlan
from repro.runtime.field import FieldConditions, fieldify, make_compute_noise
from repro.search.compose import compose_from_tree
from repro.search.tree import ModelTree, TreeSearchConfig, model_tree_search
from tests import tree_paths
from tests.conftest import make_context, make_split_tree, tree_shapes


def make_env(context, trace):
    return RuntimeEnvironment(
        edge=XIAOMI_MI_6X,
        cloud=CLOUD_SERVER,
        trace=trace,
        channel=Channel(trace, CELLULAR_TRANSFER),
        accuracy=context.accuracy,
        reward=PAPER_REWARD,
    )


@pytest.fixture
def env(vgg_context):
    return make_env(vgg_context, constant_trace(10.0, duration_s=60.0))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestFixedPlan:
    def test_full_edge_no_transfer(self, vgg_context, env, rng):
        plan = FixedPlan(vgg_context.base, None)
        outcome = plan.execute(0.0, env, rng)
        assert not outcome.offloaded
        assert outcome.transfer_ms == 0.0
        assert outcome.cloud_ms == 0.0
        assert outcome.latency_ms == pytest.approx(outcome.edge_ms)

    def test_matches_offline_estimate_on_constant_trace(self, vgg_context, env, rng):
        """Emulated latency equals the Eqn. 3 estimate when bandwidth is flat."""
        base = vgg_context.base
        p = 8
        plan = FixedPlan(base.slice(0, p), base.slice(p, len(base)))
        outcome = plan.execute(0.0, env, rng)
        estimate = vgg_context.estimator.estimate(base, p, 10.0)
        assert outcome.latency_ms == pytest.approx(estimate.total_ms, rel=1e-6)

    def test_reward_consistent(self, vgg_context, env, rng):
        plan = FixedPlan(vgg_context.base, None)
        outcome = plan.execute(0.0, env, rng)
        assert outcome.reward == pytest.approx(
            PAPER_REWARD.reward(outcome.accuracy, outcome.latency_ms)
        )

    def test_full_cloud_ships_input(self, vgg_context, env, rng):
        plan = FixedPlan(None, vgg_context.base)
        outcome = plan.execute(0.0, env, rng)
        assert outcome.offloaded
        assert outcome.edge_ms == 0.0
        assert outcome.transfer_ms > 0.0

    def test_bandwidth_dip_during_transfer_hurts(self, vgg_context, rng):
        base = vgg_context.base
        plan = FixedPlan(None, base)
        smooth_env = make_env(vgg_context, constant_trace(10.0))
        samples = np.concatenate([np.full(5, 10.0), np.full(600, 0.3)])
        dippy_env = make_env(vgg_context, BandwidthTrace(samples, 0.1))
        good = plan.execute(0.0, smooth_env, rng)
        # Start right before the dip: the transfer runs into it.
        bad = plan.execute(400.0, dippy_env, np.random.default_rng(0))
        assert bad.latency_ms > good.latency_ms


class TestTreePlan:
    @pytest.fixture
    def tree(self, vgg_context):
        config = TreeSearchConfig(num_blocks=3, episodes=3, branch_episodes=6, seed=0)
        return model_tree_search(vgg_context, [5.0, 20.0], config=config).tree

    def test_executes_and_composes(self, tree, vgg_context, env, rng):
        outcome = TreePlan(tree).execute(0.0, env, rng)
        assert outcome.latency_ms > 0
        assert 0.5 <= outcome.accuracy <= 1.0

    def test_fork_choices_recorded(self, tree, vgg_context, env, rng):
        outcome = TreePlan(tree).execute(0.0, env, rng)
        depth = len(outcome.fork_choices)
        assert 0 <= depth <= tree.num_blocks - 1

    def test_forks_follow_bandwidth(self, tree, vgg_context, rng):
        low_env = make_env(vgg_context, constant_trace(1.0))
        high_env = make_env(vgg_context, constant_trace(100.0))
        low = TreePlan(tree).execute(0.0, low_env, np.random.default_rng(1))
        high = TreePlan(tree).execute(0.0, high_env, np.random.default_rng(1))
        if low.fork_choices and high.fork_choices:
            assert all(f == 0 for f in low.fork_choices)
            assert all(f == len(tree.bandwidth_types) - 1 for f in high.fork_choices)


TINY = tiny_cnn()
TINY_CONTEXT = make_context(TINY)


def _fingerprint(spec):
    return spec.fingerprint() if spec is not None and len(spec) else None


def _trees():
    """Random model trees over ``TINY`` (see ``build_tree_shape``); many
    miss the base interface or the N-depth/K-fork contract, which only
    admission rejects, so the walk runs them all."""
    return tree_shapes(TINY)


class TestCompiledWalk:
    @settings(max_examples=150, deadline=None)
    @given(tree=_trees(), data=st.data())
    def test_walk_matches_compose_from_tree(self, tree, data):
        types = tree.bandwidth_types
        ties = [(a + b) / 2 for a, b in itertools.combinations(types, 2)]
        probe = st.one_of(st.floats(0.1, 100.0), st.sampled_from(types + ties))
        probes = data.draw(st.lists(probe, min_size=1, max_size=12))
        walked, composed, ours = (itertools.cycle(probes) for _ in range(3))
        env = make_env(TINY_CONTEXT, constant_trace(10.0))
        env.bandwidth_probe_noise = lambda true_mbps, t_ms, rng: next(walked)
        plan = TreePlan(tree)
        for request in range(3):
            outcome = plan.execute(100.0 * request, env, np.random.default_rng(0))
            expected = tree_paths.compose_from_tree(tree, lambda block: next(composed))
            forks = tuple(
                next(i for i, c in enumerate(parent.children) if c is child)
                for parent, child in zip(expected.path, expected.path[1:])
            )
            assert outcome.fork_choices == forks
            leaf = plan.compiled().root
            for fork in forks:
                leaf = leaf.children[fork]
            leaf = leaf.leaf
            assert _fingerprint(leaf.edge_spec) == _fingerprint(expected.edge_spec)
            assert _fingerprint(leaf.cloud_spec) == _fingerprint(expected.cloud_spec)
            assert leaf.full_spec.fingerprint() == expected.full_spec().fingerprint()
            assert outcome.offloaded == expected.offloads
            assert outcome.accuracy == env.accuracy.evaluate(expected.full_spec())
            walk = compose_from_tree(tree, lambda block: next(ours))
            assert all(a is b for a, b in zip(walk.path, expected.path))
            assert len(walk.path) == len(expected.path)
            assert walk.measured_bandwidths == expected.measured_bandwidths
            assert walk.full_spec().fingerprint() == leaf.full_spec.fingerprint()
            assert walk.offloads == expected.offloads

    def test_fork_past_the_last_child_takes_the_last(self, small_spec):
        root = make_split_tree(small_spec, split=2).root
        child = make_split_tree(small_spec.slice(2, len(small_spec))).root
        root.partitioned, root.children = False, [child]
        tree = ModelTree(root=root, bandwidth_types=[5.0, 20.0], base=small_spec, num_blocks=2)
        env = make_env(make_context(small_spec), constant_trace(30.0))
        outcome = TreePlan(tree).execute(0.0, env, np.random.default_rng(0))
        assert outcome.fork_choices == (0,)
        assert outcome.offloaded

    def test_repeat_execute_builds_no_spec(self, small_spec, monkeypatch):
        """The plan compiles on its first request; later requests build no
        ModelSpec and score the same full-spec object."""
        scored = []

        class Recording:
            def evaluate(self, spec):
                scored.append(spec)
                return 0.9

        env = make_env(make_context(small_spec), constant_trace(10.0))
        env.accuracy = Recording()
        plan = TreePlan(make_split_tree(small_spec))
        rng = np.random.default_rng(0)
        plan.execute(0.0, env, rng)
        built = []
        init = ModelSpec.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ModelSpec, "__init__", counting_init)
        for start_ms in (10.0, 20.0, 30.0):
            plan.execute(start_ms, env, rng)
        assert built == []
        assert len(scored) == 4
        assert all(spec is scored[0] for spec in scored)

    @pytest.mark.parametrize("split", [0, 4, 9])
    def test_fixed_plan_equals_one_node_tree_plan(self, small_spec, split):
        env = fieldify(make_env(make_context(small_spec), constant_trace(10.0)))
        tree = make_split_tree(small_spec, split=split)
        fixed = FixedPlan(tree.root.edge_spec, tree.root.cloud_spec)
        for seed in range(3):
            assert fixed.execute(5.0, env, np.random.default_rng(seed)) == (
                TreePlan(tree).execute(5.0, env, np.random.default_rng(seed))
            )


class TestEmulator:
    def test_request_count(self, vgg_context, env):
        plan = FixedPlan(vgg_context.base, None)
        result = run_emulation(plan, env, num_requests=13, seed=0)
        assert len(result) == 13

    def test_aggregates(self, vgg_context, env):
        plan = FixedPlan(vgg_context.base, None)
        result = run_emulation(plan, env, num_requests=10, seed=0)
        assert result.mean_latency_ms > 0
        assert 0.5 <= result.mean_accuracy <= 1.0
        assert 0 <= result.mean_reward <= 400
        assert result.offload_rate == 0.0
        assert result.p95_latency_ms >= result.mean_latency_ms * 0.5

    def test_spacing_mode(self, vgg_context, env):
        plan = FixedPlan(vgg_context.base, None)
        result = run_emulation(plan, env, num_requests=5, seed=0, spacing_ms=100.0)
        starts = [o.start_ms for o in result.outcomes]
        assert starts == [0.0, 100.0, 200.0, 300.0, 400.0]

    def test_invalid_request_count(self, vgg_context, env):
        with pytest.raises(ValueError):
            run_emulation(FixedPlan(vgg_context.base, None), env, num_requests=0)


class TestFieldHarness:
    def test_compute_noise_biased_up(self):
        conditions = FieldConditions(compute_bias=1.5, compute_jitter=0.2)
        noise = make_compute_noise(conditions)
        rng = np.random.default_rng(0)
        samples = [noise(rng) for _ in range(500)]
        assert 1.3 < np.median(samples) < 1.7

    def test_field_slower_than_emulation_for_edge_plans(self, vgg_context, env):
        plan = FixedPlan(vgg_context.base, None)  # compute-bound
        emu = run_emulation(plan, env, num_requests=10, seed=1)
        field = run_emulation(plan, fieldify(env), num_requests=10, seed=1)
        assert field.mean_latency_ms > emu.mean_latency_ms

    def test_field_probe_is_noisy(self, vgg_context, env):
        field_env = fieldify(env, FieldConditions(probe_noise=0.5))
        rng = np.random.default_rng(2)
        probes = {field_env.probe_bandwidth(5_000.0, rng) for _ in range(10)}
        assert len(probes) > 1  # emulation probe would be a single value

    def test_emulation_probe_is_exact(self, env, rng):
        assert env.probe_bandwidth(0.0, rng) == 10.0

    def test_fieldify_preserves_trace_and_reward(self, env):
        field_env = fieldify(env)
        assert field_env.trace is env.trace
        assert field_env.reward is env.reward


class TestQueuedEmulation:
    def test_queueing_delay_added_under_overload(self, vgg_context, env):
        """Requests arriving faster than service accumulate queueing delay."""
        plan = FixedPlan(vgg_context.base, None)  # ~44 ms service time
        unqueued = run_emulation(
            plan, env, num_requests=10, seed=0, spacing_ms=5.0
        )
        queued = run_emulation(
            plan, env, num_requests=10, seed=0, spacing_ms=5.0, queued=True
        )
        assert queued.mean_latency_ms > unqueued.mean_latency_ms
        # Latencies grow roughly linearly with queue position.
        latencies = [o.latency_ms for o in queued.outcomes]
        assert latencies[-1] > latencies[0]

    def test_no_delay_when_underloaded(self, vgg_context, env):
        plan = FixedPlan(vgg_context.base, None)
        queued = run_emulation(
            plan, env, num_requests=5, seed=0, spacing_ms=500.0, queued=True
        )
        unqueued = run_emulation(
            plan, env, num_requests=5, seed=0, spacing_ms=500.0
        )
        assert queued.mean_latency_ms == pytest.approx(unqueued.mean_latency_ms)

    def test_queued_reward_reflects_total_latency(self, vgg_context, env):
        from repro.mdp import PAPER_REWARD

        plan = FixedPlan(vgg_context.base, None)
        queued = run_emulation(
            plan, env, num_requests=8, seed=0, spacing_ms=5.0, queued=True
        )
        for outcome in queued.outcomes:
            assert outcome.reward == pytest.approx(
                PAPER_REWARD.reward(outcome.accuracy, outcome.latency_ms)
            )

    def test_faster_model_sustains_higher_rate(self, vgg_context, env):
        """The streaming motivation: a compressed model survives a frame
        rate that overloads the full model."""
        from repro.compression import default_registry
        from repro.search.plan import apply_compression_plan

        base = vgg_context.base
        registry = default_registry()
        plan_names = ["ID"] * len(base)
        from repro.model.spec import LayerType

        for i, layer in enumerate(base.layers):
            if layer.layer_type == LayerType.CONV and registry.get("C1").applies_to(base, i):
                plan_names[i] = "C1"
        slim = apply_compression_plan(base, plan_names, registry).spec

        rate_ms = 25.0  # 40 fps
        full = run_emulation(
            FixedPlan(base, None), env, num_requests=20, seed=0,
            spacing_ms=rate_ms, queued=True,
        )
        compressed = run_emulation(
            FixedPlan(slim, None), env, num_requests=20, seed=0,
            spacing_ms=rate_ms, queued=True,
        )
        assert compressed.mean_latency_ms < full.mean_latency_ms
        assert compressed.p95_latency_ms < full.p95_latency_ms

    def test_pipelined_offload_sustains_rate(self, vgg_context, env):
        """Pipelining: an offloaded plan's cloud tail overlaps the next
        request, so it sustains a frame rate the device alone cannot."""
        base = vgg_context.base
        p = 6  # small edge part, big cloud part
        offload_plan = FixedPlan(base.slice(0, p), base.slice(p, len(base)))
        rate_ms = 15.0

        serial = run_emulation(
            offload_plan, env, num_requests=20, seed=0,
            spacing_ms=rate_ms, queued=True,
        )
        pipelined = run_emulation(
            offload_plan, env, num_requests=20, seed=0,
            spacing_ms=rate_ms, queued=True, pipelined=True,
        )
        assert pipelined.mean_latency_ms < serial.mean_latency_ms

    def test_pipelining_never_hurts(self, vgg_context, env):
        plan = FixedPlan(vgg_context.base, None)  # no cloud tail to overlap
        serial = run_emulation(
            plan, env, num_requests=10, seed=0, spacing_ms=20.0, queued=True
        )
        pipelined = run_emulation(
            plan, env, num_requests=10, seed=0, spacing_ms=20.0,
            queued=True, pipelined=True,
        )
        assert pipelined.mean_latency_ms <= serial.mean_latency_ms + 1e-9
