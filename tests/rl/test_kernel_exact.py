"""The controllers' episode kernels against the tape path, byte for byte.

``tests/controller_reference.py`` keeps the tape path the controllers ran
before ``repro.rl.kernel``: the stacked recurrence node, one categorical
head node per pass and the ``weighted_sum`` loss. Seeded runs on both must
draw the same actions with the same log-probs and entropies, leave every
parameter with the same gradient bytes and memory layout, and leave
``Adam``'s flat parameters and moments equal. Episodes of one round are
split over two updates, so a pass whose rows reach both is consumed by the
first, as a tape backward consumes its nodes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import default_registry
from repro.nn.zoo import vgg11
from repro.obs import recording
from repro.rl import controller as controller_module
from repro.rl.controller import CompressionController, PartitionController
from repro.rl.reinforce import ReinforceTrainer
from repro.search.policies import RLPolicy
from repro.search.tree import TreeSearchConfig, model_tree_search
from tests import controller_reference
from tests.conftest import make_context
from tests.rl.test_head_exact import _episodes, compression_calls, partition_calls

REGISTRY = default_registry()
BASE = vgg11()


def _value_bytes(action, column):
    """A drawn row's log-prob (column 0) or entropy (1), as bytes: a kernel
    ``(pass, row)`` handle or a tape ``ScalarView``."""
    if action is None:
        return None
    if isinstance(action, tuple):
        record, row = action
        return (record.log_prob if column == 0 else record.entropy)[row].tobytes()
    return action.data.tobytes()


def _sample(controller, kind, calls, rng):
    """Every call's actions and value bytes, and its (log_probs, entropies)."""
    actions, tokens = [], []
    for call in calls:
        if kind == "partition":
            spec, bandwidths, flags = call
            for cut, log_prob, entropy in controller.sample_batch(spec, bandwidths, rng, flags):
                entropies = [entropy] if entropy is not None else []
                actions.append((cut, _value_bytes(log_prob, 0), _value_bytes(entropy, 1)))
                tokens.append(([log_prob], entropies))
        else:
            specs, bandwidths = call
            for names, log_probs, entropies in controller.sample_batch(specs, bandwidths, rng):
                values = [_value_bytes(a, 0) for a in log_probs]
                values += [_value_bytes(a, 1) for a in entropies]
                actions.append((names, values))
                tokens.append((log_probs, entropies))
    return actions, tokens


def _grads(controller):
    return [
        None if p.grad is None else (p.grad.tobytes(), p.grad.strides)
        for p in controller.parameters()
    ]


def _controller(kind, seed):
    if kind == "partition":
        return PartitionController(hidden_size=8, seed=seed)
    return CompressionController(REGISTRY, hidden_size=8, seed=seed)


def _train(kind, calls, seed, entropy_coeff, split_seed, reference):
    """Two rounds of sampling, each split over two ``update_episode``s."""
    controller = _controller(kind, seed)
    trainer = ReinforceTrainer(controller, reward_scale=0.01, entropy_coeff=entropy_coeff)
    rng = np.random.default_rng(seed)
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            controller_reference.install(patch)
        for round_seed in (split_seed, split_seed + 1):
            actions, tokens = _sample(controller, kind, calls, rng)
            episodes = _episodes(tokens, round_seed)
            half = len(episodes) // 2
            advantages = [trainer.update_episode(part) for part in (episodes[:half], episodes[half:])]
            optimizer = trainer.optimizer
            seen.append(
                (
                    actions,
                    advantages,
                    _grads(controller),
                    [optimizer._data.tobytes(), optimizer._m.tobytes(), optimizer._v.tobytes()],
                    rng.bit_generator.state,
                )
            )
    return seen


def _accumulate_onto_held(kind, calls, seed, entropy_coeff, split_seed, reference):
    """One round's whole loss backward onto gradients some parameters hold."""
    controller = _controller(kind, seed)
    trainer = ReinforceTrainer(controller, reward_scale=0.01, entropy_coeff=entropy_coeff)
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            controller_reference.install(patch)
        _, tokens = _sample(controller, kind, calls, rng)
        episodes = _episodes(tokens, split_seed)
        held = np.random.default_rng(split_seed)
        for parameter in controller.parameters():
            if held.random() < 0.6:
                parameter.grad = held.normal(size=parameter.shape)
        if reference:
            loss, advantages = trainer.episode_loss(episodes, 2.5)
            if loss is not None:
                loss.backward()
        else:
            gradients, advantages = trainer.head_gradients(episodes, 2.5)
            for record, grad in gradients:
                record.backward(grad)
    return advantages, _grads(controller)


_cases = dict(
    seed=st.integers(0, 2**16),
    entropy_coeff=st.sampled_from([0.0, 0.05]),
    split_seed=st.integers(0, 2**16),
)


@settings(max_examples=40, deadline=None)
@given(calls=partition_calls(), **_cases)
def test_partition_kernel_equals_tape(calls, seed, entropy_coeff, split_seed):
    args = ("partition", calls, seed, entropy_coeff, split_seed)
    assert _train(*args, reference=False) == _train(*args, reference=True)


@settings(max_examples=40, deadline=None)
@given(calls=compression_calls(), **_cases)
def test_compression_kernel_equals_tape(calls, seed, entropy_coeff, split_seed):
    args = ("compression", calls, seed, entropy_coeff, split_seed)
    assert _train(*args, reference=False) == _train(*args, reference=True)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["partition", "compression"]),
    data=st.data(),
    **_cases,
)
def test_backward_onto_held_gradients_equals_tape(kind, data, seed, entropy_coeff, split_seed):
    """A parameter that already holds a gradient gets each pass's terms
    added after it, in the tape's order."""
    calls = data.draw(partition_calls() if kind == "partition" else compression_calls())
    args = (kind, calls, seed, entropy_coeff, split_seed)
    assert _accumulate_onto_held(*args, reference=False) == _accumulate_onto_held(
        *args, reference=True
    )


def test_cases_reach_every_branch():
    """The strategies above do reach one-row passes (the einsum branch),
    wide passes and several passes per update; pin one of each here."""
    spec = BASE.slice(0, 6)
    for bandwidths in ([3.0], [3.0, 9.0, 27.0, 81.0]):
        calls = [(spec, bandwidths, [False] * len(bandwidths)), (BASE.slice(2, 9), [5.0], [True])]
        args = ("partition", calls, 7, 0.05, 11)
        assert _train(*args, reference=False) == _train(*args, reference=True)
    calls = [([BASE.slice(0, 5), BASE.slice(3, 8), BASE.slice(0, 7)], [2.0, 8.0, 30.0])]
    args = ("compression", calls, 3, 0.05, 5)
    assert _train(*args, reference=False) == _train(*args, reference=True)


def _tree_search(reference):
    """A seeded Alg. 3 search (branch boosting included): what it found,
    how much it evaluated, the controllers it trained and its
    ``rl.update`` events."""
    context = make_context(BASE, 0.9201)
    config = TreeSearchConfig(num_blocks=3, episodes=3, branch_episodes=4, seed=5)
    policy = RLPolicy(context.registry, seed=config.seed)
    with pytest.MonkeyPatch.context() as patch, recording() as recorder:
        if reference:
            controller_reference.install(patch)
            patch.setattr(controller_module, "bilstm_forward", None)  # no kernel pass
        result = model_tree_search(context, [4.0, 24.0], policy, config)
    controllers = (policy.partition_controller, policy.compression_controller)
    return (
        [result.best_reward, result.expected_reward, result.reward_history, result.best_history],
        [(r.best_reward, r.reward_history) for r in result.branch_results.values()],
        context.memo_stats(),
        context.evaluations,
        [{k: v.tobytes() for k, v in c.state_dict().items()} for c in controllers],
        [r["fields"] for r in recorder.records if r["name"] == "rl.update"],
    )


def test_tree_search_equals_tape():
    """A whole seeded search on the kernels replays its run on the tape:
    rewards, memo counts, evaluations, final controller parameters and
    every ``rl.update`` event field."""
    kernel = _tree_search(reference=False)
    tape = _tree_search(reference=True)
    assert kernel[-1]  # both controllers updated, and traced
    assert {fields["controller"] for fields in kernel[-1]} == {"partition", "compression"}
    for got, want in zip(kernel, tape):
        assert got == want
