"""Tests for the model tree (Alg. 3), grafting, and composition (Alg. 2)."""

import numpy as np
import pytest

from repro.search.branch import BranchPlan, optimal_branch_search, realize_branch_plan
from repro.search.compose import compose_from_tree, match_fork
from repro.search.policies import RLPolicy, RandomPolicy
from repro.search.tree import (
    ModelTree,
    TreeNode,
    TreeSearchConfig,
    build_grafted_tree,
    graft_path,
    model_tree_search,
)
from tests.conftest import make_context


@pytest.fixture
def quick_config():
    return TreeSearchConfig(num_blocks=3, episodes=4, branch_episodes=6, seed=0)


@pytest.fixture
def tree_result(vgg_context, quick_config):
    return model_tree_search(vgg_context, [5.0, 20.0], config=quick_config)


class TestTreeStructure:
    def test_all_branches_terminate(self, tree_result):
        for path in tree_result.tree.branches():
            assert path[-1].is_terminal
            for node in path[:-1]:
                assert not node.is_terminal

    def test_block_indices_increase_along_paths(self, tree_result):
        for path in tree_result.tree.branches():
            indices = [node.block_index for node in path]
            assert indices == sorted(indices)
            assert indices[0] == 0

    def test_fork_arity_bounded_by_k(self, tree_result):
        for node in tree_result.tree.root.iter_nodes():
            assert len(node.children) in (0, 2)

    def test_terminal_rewards_positive(self, tree_result):
        for path in tree_result.tree.branches():
            assert 0 < path[-1].reward <= 400

    def test_partitioned_nodes_have_cloud_spec(self, tree_result):
        for node in tree_result.tree.root.iter_nodes():
            if node.partitioned:
                assert node.cloud_spec is not None and len(node.cloud_spec) > 0
                assert not node.children

    def test_every_branch_composes_full_model(self, tree_result, vgg_context):
        """Each path's edge+cloud must reproduce the base model's output shape."""
        base = vgg_context.base
        for path in tree_result.tree.branches():
            edge = None
            for node in path:
                if node.edge_spec is not None and len(node.edge_spec):
                    edge = (
                        node.edge_spec
                        if edge is None
                        else edge.concatenate(node.edge_spec)
                    )
            cloud = path[-1].cloud_spec
            if cloud is not None and edge is not None:
                composed = edge.concatenate(cloud)
            else:
                composed = edge if edge is not None else cloud
            assert composed.output_shape == base.output_shape
            assert composed.input_shape == base.input_shape

    def test_node_count_and_best_branch(self, tree_result):
        tree = tree_result.tree
        assert tree.node_count() >= 1
        path, reward = tree.best_branch()
        assert reward == max(p[-1].reward for p in tree.branches())
        assert path[-1].reward == reward


class TestSearchGuarantees:
    def test_tree_never_loses_to_boost_branches(self, tree_result):
        best_branch_reward = max(
            r.best_reward for r in tree_result.branch_results.values()
        )
        assert tree_result.best_reward >= best_branch_reward - 1e-6

    def test_expected_reward_dominates_branch_plans(self, vgg_context, quick_config):
        result = model_tree_search(vgg_context, [5.0, 20.0], config=quick_config)
        types = [5.0, 20.0]
        for branch_result in result.branch_results.values():
            expected = np.mean(
                [
                    realize_branch_plan(vgg_context, branch_result.plan, w).reward
                    for w in types
                ]
            )
            assert result.expected_reward >= expected - 1e-6

    def test_histories_recorded(self, tree_result, quick_config):
        assert len(tree_result.reward_history) == quick_config.episodes
        assert len(tree_result.best_history) == quick_config.episodes

    def test_no_boost_mode(self, vgg_context):
        config = TreeSearchConfig(num_blocks=3, episodes=4, boost=False, seed=1)
        result = model_tree_search(vgg_context, [5.0, 20.0], config=config)
        assert result.branch_results == {}
        assert result.tree.best_branch()[1] > 0

    def test_empty_bandwidth_types_rejected(self, vgg_context, quick_config):
        with pytest.raises(ValueError):
            model_tree_search(vgg_context, [], config=quick_config)

    def test_k3_trees_supported(self, vgg_context):
        config = TreeSearchConfig(num_blocks=2, episodes=3, branch_episodes=4, seed=2)
        result = model_tree_search(vgg_context, [3.0, 10.0, 40.0], config=config)
        for node in result.tree.root.iter_nodes():
            assert len(node.children) in (0, 3)

    def test_single_block_tree(self, vgg_context):
        config = TreeSearchConfig(num_blocks=1, episodes=3, branch_episodes=4, seed=3)
        result = model_tree_search(vgg_context, [5.0, 20.0], config=config)
        assert result.tree.root.is_terminal or result.tree.root.children


class TestGraftedTree:
    def test_pure_plans_give_valid_tree(self, vgg_context):
        base_len = len(vgg_context.base)
        plans = [
            BranchPlan(base_len, tuple(["ID"] * base_len)),  # full edge
            BranchPlan(0, ()),  # full cloud
        ]
        tree = build_grafted_tree(vgg_context, [5.0, 20.0], plans, num_blocks=3)
        assert tree.best_branch()[1] > 0
        for path in tree.branches():
            assert path[-1].is_terminal

    def test_graft_expected_reward_dominates_plans(self, vgg_context):
        """The tree's expected reward never loses to any single plan's.

        (Per-type domination is impossible in general: the root block is
        shared across branches, so one type's path may compromise — but the
        *expected* reward over types must dominate every candidate plan,
        because pairing a plan's root with itself at every fork is always
        among the grafting choices.)
        """
        base_len = len(vgg_context.base)
        plans = [
            BranchPlan(base_len, tuple(["ID"] * base_len)),
            BranchPlan(0, ()),
        ]
        types = [5.0, 20.0]
        tree = build_grafted_tree(vgg_context, types, plans, num_blocks=3)
        for plan in plans:
            expected = np.mean(
                [realize_branch_plan(vgg_context, plan, w).reward for w in types]
            )
            assert tree.expected_reward() >= expected - 1e-6

    def test_requires_plans(self, vgg_context):
        with pytest.raises(ValueError):
            build_grafted_tree(vgg_context, [5.0], [], num_blocks=3)


class TestCompose:
    def test_match_fork(self):
        types = [5.0, 20.0]
        assert match_fork(3.0, types) == 0
        assert match_fork(25.0, types) == 1
        assert match_fork(12.4, types) == 0  # closer to 5? no: |12.4-5|=7.4 > |12.4-20|=7.6 -> 0
        assert match_fork(13.0, types) == 1

    @pytest.mark.parametrize(
        "bandwidth, types, expected",
        [
            (12.5, [5.0, 20.0], 0),
            (12.5, [20.0, 5.0], 0),
            (17.5, [5.0, 15.0, 20.0], 1),
            (7.5, [5.0, 10.0, 5.0], 0),
        ],
    )
    def test_match_fork_tie_takes_the_lower_index(self, bandwidth, types, expected):
        """Equidistant types resolve to the first, as ``np.argmin`` does."""
        assert match_fork(bandwidth, types) == expected
        assert expected == int(np.argmin([abs(bandwidth - t) for t in types]))

    def test_compose_follows_probe(self, tree_result):
        tree = tree_result.tree
        low = compose_from_tree(tree, lambda block: 1.0)
        high = compose_from_tree(tree, lambda block: 100.0)
        assert low.path[0] is tree.root
        assert high.path[0] is tree.root
        # Fork choices recorded match the probes.
        assert all(f == 0 for f in [match_fork(1.0, tree.bandwidth_types)])

    def test_composed_model_valid(self, tree_result, vgg_context):
        composed = compose_from_tree(tree_result.tree, lambda block: 10.0)
        full = composed.full_spec()
        assert full.input_shape == vgg_context.base.input_shape
        assert full.output_shape == vgg_context.base.output_shape

    def test_measured_bandwidths_recorded(self, tree_result):
        calls = []

        def probe(block):
            calls.append(block)
            return 10.0

        composed = compose_from_tree(tree_result.tree, probe)
        assert len(composed.measured_bandwidths) == len(calls)


class TestRandomPolicyTree:
    def test_tree_search_with_random_policy(self, vgg_context):
        config = TreeSearchConfig(num_blocks=3, episodes=3, boost=False, seed=4)
        policy = RandomPolicy(vgg_context.registry)
        result = model_tree_search(vgg_context, [5.0, 20.0], policy=policy, config=config)
        assert result.tree.best_branch()[1] > 0


class TestGraftPath:
    @pytest.fixture
    def searched(self, vgg_context, quick_config):
        return model_tree_search(vgg_context, [5.0, 20.0], config=quick_config)

    def _snapshot(self, tree):
        return [
            (id(node), node.edge_spec, node.cloud_spec, node.partitioned,
             node.grafted, node.reward)
            for node in tree.root.iter_nodes()
        ]

    def test_valid_graft_replaces_path(self, vgg_context, searched):
        tree = searched.tree
        donor_path, _ = tree.best_branch()
        graft_path(vgg_context, tree, donor_path)
        node = tree.root
        for depth, donor in enumerate(donor_path):
            if depth > 0:
                node = node.children[donor.fork_index or 0]
            assert node.grafted
            assert node.edge_spec is donor.edge_spec

    def test_unfitting_donor_raises_without_mutating(self, vgg_context, searched):
        """Regression: the donor path must be resolved against the tree's
        fork arities *before* any node is overwritten. The old
        depth-by-depth loop mutated shallower nodes first, so an unfitting
        donor left a half-grafted tree behind its ValueError."""
        tree = searched.tree
        donor_path, _ = tree.best_branch()
        before = self._snapshot(tree)
        bad_child = TreeNode(
            block_index=1,
            fork_index=99,  # beyond the K=2 fork arity
            bandwidth_mbps=5.0,
            edge_spec=vgg_context.base.slice(0, 1),
            cloud_spec=None,
            partitioned=False,
        )
        bad_path = [donor_path[0], bad_child]
        with pytest.raises(ValueError, match="fork arity"):
            graft_path(vgg_context, tree, bad_path)
        assert self._snapshot(tree) == before
