"""Tests for encodings, controllers, REINFORCE, and exploration."""

import numpy as np
import pytest

from repro.compression import default_registry
from repro.model.spec import LayerSpec, LayerType, conv, fc
from repro.nn.tensor import Tensor
from repro.rl.controller import (
    NO_PARTITION,
    CompressionController,
    PartitionController,
)
from repro.rl.encoding import ENCODING_WIDTH, encode_layer, encode_model
from repro.rl.exploration import FairChanceSchedule
from repro.rl.reinforce import EMABaseline, ReinforceTrainer
from repro.search.policies import RLPolicy


def value(action, column=0):
    """A ``(pass, row)`` handle's log-prob (column 0) or entropy (1)."""
    record, row = action
    return (record.log_prob if column == 0 else record.entropy)[row]


def accumulate(trainer, episodes, baseline_value):
    """Add the episodes' REINFORCE gradient to the parameters' ``.grad``."""
    gradients, advantages = trainer.head_gradients(episodes, baseline_value)
    for record, grad in gradients:
        record.backward(grad)
    return advantages


@pytest.fixture
def registry():
    return default_registry()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestEncoding:
    def test_width_constant(self):
        vector = encode_layer(conv(8), 10.0)
        assert vector.shape == (ENCODING_WIDTH,)

    def test_one_hot_layer_type(self):
        vector = encode_layer(conv(8), 10.0)
        type_block = vector[: len(LayerType)]
        assert type_block.sum() == 1.0

    def test_bandwidth_affects_encoding(self):
        a = encode_layer(conv(8), 1.0)
        b = encode_layer(conv(8), 100.0)
        assert not np.allclose(a, b)

    def test_different_layers_differ(self):
        assert not np.allclose(encode_layer(conv(8), 10.0), encode_layer(fc(8), 10.0))

    def test_encode_model_shape(self, small_spec):
        batch = encode_model(small_spec, 10.0)
        assert batch.shape == (1, len(small_spec), ENCODING_WIDTH)

    def test_encode_empty_rejected(self):
        with pytest.raises(ValueError):
            encode_model([], 10.0)

    def test_values_bounded(self, vgg11_spec):
        batch = encode_model(vgg11_spec, 500.0)
        assert np.abs(batch).max() < 3.0


class TestPartitionController:
    def test_logits_length(self, small_spec):
        controller = PartitionController(hidden_size=8, seed=0)
        logits, _ = controller.logits_batch(small_spec, [10.0])
        assert logits.shape == (1, len(small_spec) + 1)

    def test_sample_in_range(self, small_spec, rng):
        controller = PartitionController(hidden_size=8, seed=0)
        for cut, log_prob, _ in controller.sample_batch(small_spec, [10.0] * 20, rng):
            assert cut == NO_PARTITION or 0 <= cut < len(small_spec)
            assert value(log_prob) <= 0.0

    def test_forced_no_partition(self, small_spec, rng):
        controller = PartitionController(hidden_size=8, seed=0)
        cut, log_prob, _ = controller.sample_batch(small_spec, [10.0], rng, [True])[0]
        assert cut == NO_PARTITION
        assert value(log_prob) <= 0.0

    def test_log_prob_gradient_reaches_lstm(self, small_spec, rng):
        controller = PartitionController(hidden_size=8, seed=0)
        _, log_prob, _ = controller.sample_batch(small_spec, [10.0], rng)[0]
        accumulate(ReinforceTrainer(controller), [([log_prob], -1.0, [])], 0.0)
        grads = [p.grad for p in controller.parameters()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads)

    def test_keep_bias_favors_no_partition_initially(self, vgg11_spec, rng):
        controller = PartitionController(hidden_size=8, seed=1)
        outcomes = [
            cut for cut, _, _ in controller.sample_batch(vgg11_spec, [10.0] * 60, rng)
        ]
        keep_rate = sum(1 for o in outcomes if o == NO_PARTITION) / len(outcomes)
        assert keep_rate > 2.0 / (len(vgg11_spec) + 1)


class TestCompressionController:
    def test_one_action_per_layer(self, small_spec, registry, rng):
        controller = CompressionController(registry, hidden_size=8, seed=0)
        names, _, _ = controller.sample_batch([small_spec], [10.0], rng)[0]
        assert len(names) == len(small_spec)
        assert all(name in registry for name in names)

    def test_actions_respect_applicability(self, small_spec, registry, rng):
        controller = CompressionController(registry, hidden_size=8, seed=0)
        for names, _, _ in controller.sample_batch([small_spec] * 10, [10.0] * 10, rng):
            for i, name in enumerate(names):
                if name != "ID":
                    assert registry.get(name).applies_to(small_spec, i)

    def test_identity_only_layers_skipped(self, small_spec, registry, rng):
        controller = CompressionController(registry, hidden_size=8, seed=0)
        _, log_probs, _ = controller.sample_batch([small_spec], [10.0], rng)[0]
        compressible = sum(
            1 for i in range(len(small_spec))
            if len(registry.applicable(small_spec, i)) > 1
        )
        assert len(log_probs) == compressible

    def test_id_bias_makes_initial_plans_sparse(self, vgg11_spec, registry, rng):
        controller = CompressionController(registry, hidden_size=8, seed=0)
        counts = [
            sum(1 for n in names if n != "ID")
            for names, _, _ in controller.sample_batch(
                [vgg11_spec] * 10, [10.0] * 10, rng
            )
        ]
        assert np.mean(counts) < 5.0  # far below the ~8 of a uniform policy


class TestEMABaseline:
    def test_first_episode_advantage_is_full_reward(self):
        """Warm-up: with no history the baseline is 0, so the first
        episode's gradient is NOT discarded (regression: it used to return
        the reward itself, zeroing the first advantage)."""
        baseline = EMABaseline(0.9)
        assert 10.0 - baseline.update(10.0) == pytest.approx(10.0)
        assert baseline.value == pytest.approx(10.0)

    def test_second_episode_advantage_vs_first_reward(self):
        """The second episode subtracts the EMA of previous rewards, which
        after one observation is exactly the first reward."""
        baseline = EMABaseline(0.8)
        baseline.update(10.0)
        assert 16.0 - baseline.update(16.0) == pytest.approx(16.0 - 10.0)
        # After the second update the EMA has folded the new reward in.
        assert baseline.value == pytest.approx(0.8 * 10.0 + 0.2 * 16.0)

    def test_tracks_mean(self):
        baseline = EMABaseline(0.5)
        for _ in range(20):
            baseline.update(4.0)
        assert baseline.value == pytest.approx(4.0, abs=1e-3)

    def test_advantage_sign(self):
        baseline = EMABaseline(0.5)
        baseline.update(10.0)
        assert 20.0 - baseline.update(20.0) > 0
        baseline2 = EMABaseline(0.5)
        baseline2.update(10.0)
        assert 1.0 - baseline2.update(1.0) < 0

    def test_invalid_decay(self):
        with pytest.raises(ValueError):
            EMABaseline(1.0)


class TestReinforce:
    def test_policy_shifts_toward_rewarded_action(self, small_spec, registry):
        """Rewarding one cut must raise its probability."""
        controller = PartitionController(hidden_size=8, seed=0)
        trainer = ReinforceTrainer(controller, lr=0.05, reward_scale=0.1)
        rng = np.random.default_rng(1)
        target = 3

        def prob_of_target():
            logits = controller.logits_batch(small_spec, [10.0])[0][0]
            probs = np.exp(logits - logits.max())
            return probs[target] / probs.sum()

        before = prob_of_target()
        for _ in range(30):
            cut, log_prob, entropy = controller.sample_batch(small_spec, [10.0], rng)[0]
            reward = 100.0 if cut == target else 0.0
            trainer.update_episode([([log_prob], reward, [entropy])])
        assert prob_of_target() > before

    def test_empty_log_probs_no_crash(self, registry):
        controller = PartitionController(hidden_size=8, seed=0)
        trainer = ReinforceTrainer(controller)
        assert trainer.update_episode([([], 10.0, [])]) == [10.0]
        assert trainer.baseline.value == 10.0

    def test_baseline_tracks_raw_rewards_despite_scale(self, small_spec, registry):
        """reward_scale sizes the gradient step only; the EMA baseline
        tracks the raw reward."""
        controller = PartitionController(hidden_size=8, seed=0)
        trainer = ReinforceTrainer(controller, reward_scale=0.01)
        rng = np.random.default_rng(3)
        _, log_prob, entropy = controller.sample_batch(small_spec, [10.0], rng)[0]
        advantages = trainer.update_episode([([log_prob], 200.0, [entropy])])
        assert trainer.baseline.value == pytest.approx(200.0)
        # First-episode advantage = reward - 0, then scaled.
        assert advantages == [pytest.approx(200.0 * 0.01)]


class TestFairChance:
    def test_alpha_decays_to_zero(self):
        schedule = FairChanceSchedule(alpha=0.9, decay_episodes=10, num_blocks=3)
        assert schedule.current_alpha(0) == pytest.approx(0.9)
        assert schedule.current_alpha(5) == pytest.approx(0.45)
        assert schedule.current_alpha(10) == 0.0
        assert schedule.current_alpha(100) == 0.0

    def test_paper_formula_alpha_times_fraction(self):
        schedule = FairChanceSchedule(alpha=0.6, decay_episodes=100, num_blocks=3)
        # n is 1-based: block 0 -> (N-1)/N, last block -> 0.
        assert schedule.force_probability(0, 0) == pytest.approx(0.6 * 2 / 3)
        assert schedule.force_probability(0, 2) == 0.0

    def test_should_force_respects_probability(self):
        schedule = FairChanceSchedule(alpha=1.0, decay_episodes=1000, num_blocks=2)
        rng = np.random.default_rng(0)
        forced = sum(schedule.should_force(0, 0, rng) for _ in range(1000))
        assert 400 < forced < 600  # P = 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            FairChanceSchedule(alpha=1.5)
        with pytest.raises(ValueError):
            FairChanceSchedule(decay_episodes=0)
        with pytest.raises(ValueError):
            FairChanceSchedule(num_blocks=0)


class TestEntropyBonus:
    def test_entropy_exposed_and_positive(self, small_spec, registry, rng):
        controller = PartitionController(hidden_size=8, seed=0)
        _, _, entropy = controller.sample_batch(small_spec, [10.0], rng)[0]
        assert entropy is not None
        assert value(entropy, 1) > 0

    def test_compression_entropies_match_sampled_layers(
        self, small_spec, registry, rng
    ):
        controller = CompressionController(registry, hidden_size=8, seed=0)
        _, log_probs, entropies = controller.sample_batch([small_spec], [10.0], rng)[0]
        assert len(entropies) == len(log_probs)

    def test_entropy_bonus_slows_collapse(self, small_spec, registry):
        """With a strong entropy bonus, rewarding one action keeps the
        distribution flatter than the unregularized policy (mean over
        seeds — individual trajectories are noisy)."""

        def final_entropy(entropy_coeff: float, seed: int) -> float:
            controller = PartitionController(hidden_size=8, seed=0)
            trainer = ReinforceTrainer(
                controller, lr=0.05, reward_scale=0.1, entropy_coeff=entropy_coeff
            )
            rng = np.random.default_rng(seed)
            for _ in range(25):
                cut, log_prob, entropy = controller.sample_batch(
                    small_spec, [10.0], rng
                )[0]
                reward = 100.0 if cut == 3 else 0.0
                trainer.update_episode([([log_prob], reward, [entropy])])
            logits = controller.logits_batch(small_spec, [10.0])[0][0]
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            return float(-(probs * np.log(probs + 1e-12)).sum())

        seeds = (1, 2, 3)
        strong = np.mean([final_entropy(20.0, s) for s in seeds])
        none = np.mean([final_entropy(0.0, s) for s in seeds])
        assert strong > none

    def test_entropy_only_update_supported(self, small_spec, registry, rng):
        controller = PartitionController(hidden_size=8, seed=0)
        trainer = ReinforceTrainer(controller, entropy_coeff=1.0)
        _, _, entropy = controller.sample_batch(small_spec, [10.0], rng)[0]
        before = [p.data.copy() for p in controller.parameters()]
        trainer.update_episode([([], 10.0, [entropy])])
        assert trainer.baseline.value == 10.0
        assert any(
            not np.array_equal(p.data, old)
            for p, old in zip(controller.parameters(), before)
        )


class TestStaleEntropyRegression:
    @pytest.fixture
    def policy(self, registry):
        return RLPolicy(registry, hidden_size=8, seed=0)

    def test_forced_row_carries_no_entropy(self, small_spec, policy, rng):
        """Regression: a forced no-partition draw samples no distribution,
        so its token must carry no entropy — an earlier sample's entropy
        used to leak into the forced node's update."""
        sampled, forced = policy.sample_partition_batch(
            small_spec, [10.0, 10.0], rng, [False, True]
        )
        assert sampled[1][2] != []
        assert forced[0] == NO_PARTITION
        assert forced[1][2] == []

    def test_entropy_returns_after_forced_sample(self, small_spec, policy, rng):
        forced, sampled = policy.sample_partition_batch(
            small_spec, [10.0, 10.0], rng, [True, False]
        )
        assert forced[1][2] == []
        assert len(sampled[1][2]) == 1


class TestSoleApplicableRegression:
    """Layers with exactly one applicable technique must emit *that*
    technique — a prior revision hardcoded "ID" whenever the distribution
    was degenerate, silently dropping the only applicable transform in
    registries where identity is masked out."""

    @pytest.fixture
    def no_id_registry(self, registry):
        from repro.compression.base import TechniqueRegistry

        return TechniqueRegistry([registry.get("W1")])

    def test_sample_emits_sole_technique(self, small_spec, no_id_registry, rng):
        controller = CompressionController(no_id_registry, hidden_size=8, seed=0)
        names, log_probs, _ = controller.sample_batch([small_spec], [10.0], rng)[0]
        assert log_probs == []  # one-arm distributions are never sampled
        for i, name in enumerate(names):
            applicable = [
                t.name for t in no_id_registry.applicable(small_spec, i)
            ]
            if applicable:
                assert name == applicable[0] == "W1"
            else:
                assert name == "ID"  # no-op fallback when nothing applies
        assert "W1" in names  # the spec has conv layers W1 applies to


class TestBatchedSampling:
    """A batch of N rows must be indistinguishable from N batches of one:
    same logits, same RNG consumption, same actions."""

    def test_partition_logits_batch_matches_single(self, small_spec):
        controller = PartitionController(hidden_size=8, seed=0)
        bandwidths = [3.0, 10.0, 80.0]
        batched, _ = controller.logits_batch(small_spec, bandwidths)
        for row, bw in enumerate(bandwidths):
            single = controller.logits_batch(small_spec, [bw])[0][0]
            np.testing.assert_allclose(batched[row], single, rtol=1e-12)

    def test_partition_batch_matches_sequential_actions(self, small_spec):
        controller = PartitionController(hidden_size=8, seed=0)
        bandwidths = [3.0, 10.0, 80.0, 10.0]
        batched = controller.sample_batch(
            small_spec, bandwidths, np.random.default_rng(11)
        )
        rng = np.random.default_rng(11)
        for (cut, log_prob, entropy), bw in zip(batched, bandwidths):
            expected_cut, expected_lp, _ = controller.sample_batch(
                small_spec, [bw], rng
            )[0]
            assert cut == expected_cut
            np.testing.assert_allclose(
                value(log_prob), value(expected_lp), rtol=1e-12
            )

    def test_partition_forced_rows_consume_no_rng(self, small_spec):
        controller = PartitionController(hidden_size=8, seed=0)
        bandwidths = [3.0, 10.0, 80.0]
        flags = [False, True, False]
        batched = controller.sample_batch(
            small_spec, bandwidths, np.random.default_rng(5), force_flags=flags
        )
        assert batched[1][0] == NO_PARTITION
        assert batched[1][2] is None  # no distribution sampled -> no entropy
        # Unforced rows draw the same stream as a run without the forced row.
        rng = np.random.default_rng(5)
        for row in (0, 2):
            cut, _, _ = controller.sample_batch(small_spec, [bandwidths[row]], rng)[0]
            assert batched[row][0] == cut

    def test_partition_force_flags_length_checked(self, small_spec, rng):
        controller = PartitionController(hidden_size=8, seed=0)
        with pytest.raises(ValueError):
            controller.sample_batch(small_spec, [5.0, 10.0], rng, [True])

    def test_compression_batch_matches_sequential(self, small_spec, registry):
        controller = CompressionController(registry, hidden_size=8, seed=0)
        specs = [small_spec, small_spec.slice(0, 6), small_spec]
        bandwidths = [3.0, 10.0, 80.0]
        batched = controller.sample_batch(
            specs, bandwidths, np.random.default_rng(13)
        )
        rng = np.random.default_rng(13)
        for (names, log_probs, entropies), spec, bw in zip(
            batched, specs, bandwidths
        ):
            expected_names, expected_lps, _ = controller.sample_batch(
                [spec], [bw], rng
            )[0]
            assert names == expected_names
            assert len(log_probs) == len(expected_lps)
            for got, want in zip(log_probs, expected_lps):
                np.testing.assert_allclose(value(got), value(want), rtol=1e-12)

    def test_compression_batch_length_mismatch_rejected(self, small_spec, registry, rng):
        controller = CompressionController(registry, hidden_size=8, seed=0)
        with pytest.raises(ValueError):
            controller.sample_batch([small_spec], [5.0, 10.0], rng)


class TestBatchedEpisodeUpdate:
    """update_episode: one accumulated loss, one step, frozen baseline."""

    def _partition_episodes(self, controller, spec, seed, rewards):
        rng = np.random.default_rng(seed)
        episodes = []
        for reward in rewards:
            _, log_prob, entropy = controller.sample_batch(spec, [10.0], rng)[0]
            episodes.append(([log_prob], reward, [entropy]))
        return episodes

    def _compression_episodes(self, controller, spec, seed, rewards):
        rng = np.random.default_rng(seed)
        episodes = []
        for reward in rewards:
            _, log_probs, entropies = controller.sample_batch([spec], [10.0], rng)[0]
            episodes.append((log_probs, reward, entropies))
        return episodes

    def _grads(self, controller):
        return {
            name: parameter.grad.copy()
            for name, parameter in controller.named_parameters()
            if parameter.grad is not None and np.abs(parameter.grad).sum() > 0
        }

    @pytest.mark.parametrize("kind", ["partition", "compression"])
    def test_batched_gradient_is_sum_of_per_node_gradients(
        self, small_spec, registry, kind
    ):
        """The property the one-step batched update rests on: with the
        baseline frozen, the accumulated episode loss's gradient equals
        the sum of the per-node loss gradients. (Episodes are re-sampled
        from the same RNG seed for each measurement, because a backward
        consumes its passes; no optimizer step happens in between, so
        the draws are identical.)"""
        if kind == "partition":
            controller = PartitionController(hidden_size=8, seed=0)
            make = lambda: self._partition_episodes(
                controller, small_spec, 17, (30.0, 10.0, 50.0)
            )
        else:
            controller = CompressionController(registry, hidden_size=8, seed=0)
            make = lambda: self._compression_episodes(
                controller, small_spec, 17, (30.0, 10.0, 50.0)
            )
        trainer = ReinforceTrainer(
            controller, lr=0.05, reward_scale=0.1, entropy_coeff=0.5
        )
        baseline_value = 20.0

        # Sequential reference: one backward per node, gradients summed.
        expected: dict = {}
        for episode in make():
            trainer.optimizer.zero_grad()
            accumulate(trainer, [episode], baseline_value)
            for name, grad in self._grads(controller).items():
                expected[name] = expected.get(name, 0.0) + grad

        # Batched: one accumulated loss, one backward.
        trainer.optimizer.zero_grad()
        advantages = accumulate(trainer, make(), baseline_value)
        batched = self._grads(controller)

        assert advantages == pytest.approx(
            [(r - baseline_value) * 0.1 for r in (30.0, 10.0, 50.0)]
        )
        assert set(batched) == set(expected)
        for name in expected:
            np.testing.assert_allclose(
                batched[name], expected[name], rtol=1e-9, atol=1e-12
            )

    def test_baseline_folds_rewards_in_arrival_order(self, small_spec):
        controller = PartitionController(hidden_size=8, seed=0)
        trainer = ReinforceTrainer(controller, lr=0.05)
        rewards = (30.0, 10.0, 50.0)
        episodes = self._partition_episodes(controller, small_spec, 23, rewards)
        trainer.update_episode(episodes)
        reference = EMABaseline(trainer.baseline.decay)
        for reward in rewards:
            reference.update(reward)
        assert trainer.baseline.value == pytest.approx(reference.value)

    def test_empty_episode_batch_is_noop(self, small_spec):
        controller = PartitionController(hidden_size=8, seed=0)
        trainer = ReinforceTrainer(controller)
        assert trainer.update_episode([]) == []
        assert trainer.baseline.value is None
