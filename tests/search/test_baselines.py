"""Tests for Dynamic DNN Surgery (min-cut) and the search baselines."""

import itertools
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.latency import CLOUD_SERVER, LatencyEstimator
from repro.latency.devices import get_device
from repro.latency.transfer import CELLULAR_TRANSFER, WIFI_TRANSFER
from repro.nn.zoo import alexnet, vgg11
from repro.search.baselines import (
    _min_cut_prefix,
    dynamic_dnn_surgery,
    exhaustive_branch_search,
    exhaustive_chain_partition,
)
from repro.search.policies import EpsilonGreedyPolicy, RLPolicy, RandomPolicy
from tests.conftest import make_context


class TestDynamicDNNSurgery:
    @pytest.mark.parametrize("bandwidth", [1.0, 5.0, 15.0, 60.0, 200.0])
    def test_mincut_matches_chain_oracle(self, vgg_context, bandwidth):
        """For chain DNNs the min-cut must equal the exhaustive best cut."""
        surgery = dynamic_dnn_surgery(vgg_context, bandwidth)
        oracle = exhaustive_chain_partition(vgg_context, bandwidth)
        assert surgery.result.latency_ms == pytest.approx(
            oracle.result.latency_ms, rel=1e-9
        )

    def test_high_bandwidth_prefers_cloud(self, vgg_context):
        surgery = dynamic_dnn_surgery(vgg_context, 500.0)
        assert surgery.partition_index < len(vgg_context.base) // 2

    def test_low_bandwidth_prefers_edge(self, vgg_context):
        surgery = dynamic_dnn_surgery(vgg_context, 0.5)
        assert surgery.partition_index == len(vgg_context.base)

    def test_accuracy_always_base(self, vgg_context):
        """Surgery never compresses, so accuracy equals the base (92.01%)."""
        for bandwidth in (2.0, 20.0):
            surgery = dynamic_dnn_surgery(vgg_context, bandwidth)
            assert surgery.result.accuracy == pytest.approx(0.9201)

    def test_partition_consistent_with_result(self, vgg_context):
        surgery = dynamic_dnn_surgery(vgg_context, 10.0)
        p = surgery.partition_index
        if p == 0:
            assert surgery.result.edge_spec is None
        elif p == len(vgg_context.base):
            assert surgery.result.cloud_spec is None
        else:
            assert len(surgery.result.edge_spec) == p


def _networkx_prefix(edge_ms, cloud_ms, cross_ms):
    """The layer graph's min cut by networkx max flow (the reference)."""
    graph = nx.DiGraph()
    for i, (edge, cloud) in enumerate(zip(edge_ms, cloud_ms)):
        graph.add_edge("s", i, capacity=cloud)
        graph.add_edge(i, "t", capacity=edge)
    graph.add_edge("s", "input", capacity=float("inf"))
    graph.add_edge("input", 0, capacity=cross_ms[0])
    graph.add_edge(0, "input", capacity=0.0)
    for i in range(1, len(edge_ms)):
        graph.add_edge(i - 1, i, capacity=cross_ms[i])
        graph.add_edge(i, i - 1, capacity=cross_ms[i])
    _, (edge_side, _) = nx.minimum_cut(graph, "s", "t")
    prefix = 0
    while prefix < len(edge_ms) and prefix in edge_side:
        prefix += 1
    return prefix


def _enumerated_prefix(edge_ms, cloud_ms, cross_ms):
    """Every edge/cloud assignment, costed exactly; the union of the
    minimum cuts' edge sides, as a prefix length."""
    costs = {}
    for sides in itertools.product((0, 1), repeat=len(edge_ms)):
        cost, before = Fraction(0), 0
        for i, side in enumerate(sides):
            cost += Fraction(cloud_ms[i] if side else edge_ms[i])
            cost += Fraction(cross_ms[i]) if side != before else 0
            before = side
        costs[sides] = cost
    best = min(costs.values())
    on_edge = {
        i for sides, cost in costs.items() if cost == best
        for i, side in enumerate(sides) if not side
    }
    prefix = 0
    while prefix in on_edge:
        prefix += 1
    return prefix


def _chain(draw_value):
    return st.integers(1, 7).flatmap(
        lambda n: st.tuples(*[st.lists(draw_value, min_size=n, max_size=n)] * 3)
    )


class TestMinCutPrefix:
    @settings(max_examples=300, deadline=None)
    @given(_chain(st.integers(0, 4).map(float)))
    def test_matches_networkx_on_exact_capacities(self, chain):
        """Small integers keep networkx's float max flow exact, so the two
        must agree on every cut, ties included."""
        assert _min_cut_prefix(*chain) == _networkx_prefix(*chain)

    @settings(max_examples=300, deadline=None)
    @given(_chain(st.floats(0.0, 10.0)))
    def test_matches_exact_enumeration(self, chain):
        assert _min_cut_prefix(*chain) == _enumerated_prefix(*chain)

    @pytest.mark.parametrize("model", [vgg11, alexnet])
    @pytest.mark.parametrize("device", ["xiaomi_mi_6x", "jetson_tx2"])
    @pytest.mark.parametrize("transfer", [WIFI_TRANSFER, CELLULAR_TRANSFER])
    def test_matches_networkx_on_zoo_models(self, model, device, transfer):
        spec = model()
        estimator = LatencyEstimator(get_device(device), CLOUD_SERVER, transfer)
        shapes = [(spec.input_shape_of(i), spec.output_shape_of(i)) for i in range(len(spec))]
        edge_ms = [estimator.edge.layer_latency_ms(layer, *s) for layer, s in zip(spec, shapes)]
        cloud_ms = [estimator.cloud.layer_latency_ms(layer, *s) for layer, s in zip(spec, shapes)]
        for bandwidth in np.logspace(-1.5, 3, 25):
            cross_ms = [transfer.latency_ms(spec.input_shape.num_bytes, bandwidth)] + [
                transfer.latency_ms(spec.feature_bytes_after(i), bandwidth)
                for i in range(len(spec) - 1)
            ]
            assert _min_cut_prefix(edge_ms, cloud_ms, cross_ms) == _networkx_prefix(
                edge_ms, cloud_ms, cross_ms
            )


class TestExhaustiveSearch:
    def test_chain_partition_minimizes_latency(self, small_context):
        oracle = exhaustive_chain_partition(small_context, 10.0)
        spec = small_context.base
        latencies = [
            small_context.estimator.estimate(spec, p, 10.0).total_ms
            for p in range(len(spec) + 1)
        ]
        assert oracle.result.latency_ms == pytest.approx(min(latencies))

    def test_exhaustive_dominates_everything(self, small_context):
        """Brute force is an upper bound for any other search."""
        optimum = exhaustive_branch_search(small_context, 10.0)
        oracle = exhaustive_chain_partition(small_context, 10.0)
        assert optimum.reward >= oracle.result.reward - 1e-9

    def test_candidate_cap_enforced(self, vgg_context):
        with pytest.raises(RuntimeError):
            exhaustive_branch_search(vgg_context, 10.0, max_candidates=100)


class TestBaselinePolicies:
    def test_random_policy_samples_valid(self, small_context):
        policy = RandomPolicy(small_context.registry)
        rng = np.random.default_rng(0)
        spec = small_context.base
        for _ in range(20):
            [(cut, _)] = policy.sample_partition_batch(spec, [10.0], rng)
            assert cut == -1 or 0 <= cut < len(spec)
            [(names, _)] = policy.sample_compression_batch([spec], [10.0], rng)
            for i, name in enumerate(names):
                if name != "ID":
                    assert small_context.registry.get(name).applies_to(spec, i)

    def test_random_policy_force(self, small_context):
        policy = RandomPolicy(small_context.registry)
        rng = np.random.default_rng(0)
        [(cut, _)] = policy.sample_partition_batch(
            small_context.base, [10.0], rng, [True]
        )
        assert cut == -1

    def test_epsilon_greedy_learns_values(self, small_context):
        policy = EpsilonGreedyPolicy(small_context.registry, epsilon=0.0)
        rng = np.random.default_rng(0)
        spec = small_context.base
        # Record a strong reward for one specific partition action.
        state = policy._state_key(spec, 10.0)
        policy._record(("p", state, 4), 400.0)
        # Drain optimism for all other arms.
        for action in list(range(len(spec))) + [-1]:
            if action != 4:
                policy._record(("p", state, action), 0.0)
        [(cut, _)] = policy.sample_partition_batch(spec, [10.0], rng)
        assert cut == 4

    def test_epsilon_greedy_update_records(self, small_context):
        policy = EpsilonGreedyPolicy(small_context.registry)
        rng = np.random.default_rng(1)
        spec = small_context.base
        [(_, token)] = policy.sample_partition_batch(spec, [10.0], rng)
        policy.update_episode([([token], 123.0)])
        key = token[0]
        mean, count = policy._values[key]
        assert count == 1
        assert mean == 123.0

    def test_epsilon_one_is_uniform_random(self, small_context):
        policy = EpsilonGreedyPolicy(small_context.registry, epsilon=1.0)
        rng = np.random.default_rng(2)
        cuts = {
            cut
            for cut, _ in policy.sample_partition_batch(
                small_context.base, [10.0] * 50, rng
            )
        }
        assert len(cuts) > 3


_POLICIES = {
    "rl": lambda registry: RLPolicy(registry, hidden_size=8, seed=0),
    "random": RandomPolicy,
    "epsilon_greedy": lambda registry: EpsilonGreedyPolicy(registry, epsilon=0.5),
}


class TestSearchPolicyRngContract:
    """``SearchPolicy``'s contract: the RNG is consumed in request order, so
    one batch call of N rows is indistinguishable from N one-row calls."""

    @pytest.mark.parametrize("kind", sorted(_POLICIES))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rows=st.lists(
            st.tuples(
                st.floats(0.5, 200.0), st.booleans(), st.integers(1, 9)
            ),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_batch_of_n_equals_n_batches_of_one(
        self, small_context, kind, rows, seed
    ):
        policy = _POLICIES[kind](small_context.registry)
        spec = small_context.base
        bandwidths = [bandwidth for bandwidth, _, _ in rows]
        flags = [force for _, force, _ in rows]
        edges = [spec.slice(0, length) for _, _, length in rows]

        batch_rng = np.random.default_rng(seed)
        batched = [
            action
            for action, _ in policy.sample_partition_batch(
                spec, bandwidths, batch_rng, flags
            )
        ] + [
            action
            for action, _ in policy.sample_compression_batch(
                edges, bandwidths, batch_rng
            )
        ]

        row_rng = np.random.default_rng(seed)
        per_row = [
            policy.sample_partition_batch(spec, [bandwidth], row_rng, [force])[0][0]
            for bandwidth, force in zip(bandwidths, flags)
        ] + [
            policy.sample_compression_batch([edge], [bandwidth], row_rng)[0][0]
            for edge, bandwidth in zip(edges, bandwidths)
        ]

        assert batched == per_row
        assert batch_rng.bit_generator.state == row_rng.bit_generator.state
