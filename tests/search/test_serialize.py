"""Tests for model-tree and controller persistence."""

import numpy as np
import pytest

from repro.search.compose import compose_from_tree
from repro.search.policies import RLPolicy
from repro.search.serialize import (
    load_policy,
    load_tree,
    save_policy,
    save_tree,
    tree_from_dict,
    tree_to_dict,
)
from repro.search.tree import TreeSearchConfig, model_tree_search


@pytest.fixture(scope="module")
def trained(request):
    from tests.conftest import make_context
    from repro.nn.zoo import vgg11

    context = make_context(vgg11(), 0.9201)
    config = TreeSearchConfig(num_blocks=3, episodes=3, branch_episodes=5, seed=0)
    result = model_tree_search(context, [5.0, 20.0], config=config)
    return context, result


class TestTreeSerialization:
    def test_dict_roundtrip_preserves_structure(self, trained):
        _, result = trained
        tree = result.tree
        rebuilt = tree_from_dict(tree_to_dict(tree))
        assert rebuilt.num_blocks == tree.num_blocks
        assert rebuilt.bandwidth_types == tree.bandwidth_types
        assert rebuilt.node_count() == tree.node_count()
        assert rebuilt.base.fingerprint() == tree.base.fingerprint()

    def test_roundtrip_preserves_rewards(self, trained):
        _, result = trained
        rebuilt = tree_from_dict(tree_to_dict(result.tree))
        original = [p[-1].reward for p in result.tree.branches()]
        restored = [p[-1].reward for p in rebuilt.branches()]
        assert original == restored

    def test_file_roundtrip(self, trained, tmp_path):
        _, result = trained
        path = tmp_path / "tree.json"
        save_tree(result.tree, path)
        rebuilt = load_tree(path)
        assert rebuilt.best_branch()[1] == pytest.approx(
            result.tree.best_branch()[1]
        )

    def test_loaded_tree_composes_at_runtime(self, trained, tmp_path):
        _, result = trained
        path = tmp_path / "tree.json"
        save_tree(result.tree, path)
        rebuilt = load_tree(path)
        composed = compose_from_tree(rebuilt, probe=lambda block: 10.0)
        assert composed.full_spec().output_shape == result.tree.base.output_shape

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            tree_from_dict({"format": "something_else"})


class TestFingerprintStamps:
    def test_tree_dict_carries_base_stamp(self, trained):
        _, result = trained
        data = tree_to_dict(result.tree)
        assert data["base_fingerprint"] == result.tree.base.fingerprint()

    def test_tampered_base_is_rejected(self, trained):
        _, result = trained
        data = tree_to_dict(result.tree)
        data["base"]["name"] = "renamed"  # name is outside the fingerprint
        tree_from_dict(data)  # renaming alone stays loadable
        data["base_fingerprint"] = "0" * 16
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            tree_from_dict(data)

    def test_stampless_artifact_still_loads(self, trained):
        """Artifacts written before the stamp existed must keep loading."""
        _, result = trained
        data = tree_to_dict(result.tree)
        del data["base_fingerprint"]
        rebuilt = tree_from_dict(data)
        assert rebuilt.node_count() == result.tree.node_count()

    def test_plan_roundtrip_and_tamper(self, trained):
        from repro.runtime.engine import FixedPlan
        from repro.search.serialize import plan_from_dict, plan_to_dict

        context, _ = trained
        base = context.base
        plan = FixedPlan(base.slice(0, 4), base.slice(4, len(base)))
        data = plan_to_dict(plan, base=base)
        rebuilt = plan_from_dict(data)
        assert rebuilt.edge_spec.fingerprint() == plan.edge_spec.fingerprint()
        data["fingerprints"]["edge"] = "f" * 16
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            plan_from_dict(data)


class TestPolicyCheckpoints:
    def test_roundtrip_restores_parameters(self, trained, tmp_path):
        context, _ = trained
        policy = RLPolicy(context.registry, seed=1)
        path = tmp_path / "policy.npz"
        save_policy(policy, path)

        other = RLPolicy(context.registry, seed=99)
        # Different seed -> different init.
        p0 = next(iter(policy.partition_controller.parameters())).data
        o0 = next(iter(other.partition_controller.parameters())).data
        assert not np.allclose(p0, o0)

        load_policy(other, path)
        for (_, a), (_, b) in zip(
            policy.partition_controller.named_parameters(),
            other.partition_controller.named_parameters(),
        ):
            np.testing.assert_allclose(a.data, b.data)
        for (_, a), (_, b) in zip(
            policy.compression_controller.named_parameters(),
            other.compression_controller.named_parameters(),
        ):
            np.testing.assert_allclose(a.data, b.data)

    def test_restored_policy_behaves_identically(self, trained, tmp_path):
        context, _ = trained
        policy = RLPolicy(context.registry, seed=2)
        path = tmp_path / "policy.npz"
        save_policy(policy, path)
        clone = load_policy(RLPolicy(context.registry, seed=77), path)
        spec = context.base
        logits_a, _ = policy.partition_controller.logits_batch(spec, [10.0])
        logits_b, _ = clone.partition_controller.logits_batch(spec, [10.0])
        np.testing.assert_allclose(logits_a, logits_b)

    def test_loaded_policy_trains_through_existing_trainers(self, trained, tmp_path):
        """Loading writes into the parameters in place, so the trainers the
        policy built beforehand keep training the loaded values: one update
        moves them exactly as it moves a policy built from those values."""
        context, _ = trained
        path = tmp_path / "policy.npz"
        save_policy(RLPolicy(context.registry, seed=2), path)
        loaded = load_policy(RLPolicy(context.registry, seed=77), path)
        reference = RLPolicy(context.registry, seed=2)
        block = context.base.slice(0, 6)
        modules = (loaded.partition_controller, loaded.compression_controller)
        saved = [[p.data.copy() for p in module.parameters()] for module in modules]
        for policy in (loaded, reference):
            rng = np.random.default_rng(0)
            [(_, partition)] = policy.sample_partition_batch(block, [10.0], rng)
            [(_, compression)] = policy.sample_compression_batch([block], [10.0], rng)
            policy.update_episode([([partition, compression], 1.0)])
        references = (reference.partition_controller, reference.compression_controller)
        for module, other, before in zip(modules, references, saved):
            for p, q, values in zip(module.parameters(), other.parameters(), before):
                assert not np.array_equal(p.data, values), p.name
                assert p.data.tobytes() == q.data.tobytes(), p.name
