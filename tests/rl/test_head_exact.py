"""The fused policy heads and REINFORCE loss against the per-row tape.

Each backbone pass's categorical draws run as one ``CategoricalHead``
node, and an episode's loss is one ``weighted_sum`` node. Both must
reproduce the per-row oracle in ``tests/tape_heads.py`` bit for bit:
the same actions from the same RNG stream, the same log-prob and entropy
values, and ``np.array_equal`` gradients on the logits and every
controller parameter.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import default_registry
from repro.nn.tensor import ScalarView, Tensor, weighted_sum
from repro.nn.zoo import vgg11
from repro.rl.controller import (
    CategoricalHead,
    CompressionController,
    PartitionController,
)
from repro.rl.reinforce import ReinforceTrainer
from tests import tape_heads

BASE = vgg11()
REGISTRY = default_registry()

#: Block slices of VGG-11: lengths 1-9, conv-only, pool-led and FC blocks.
_slices = st.tuples(st.integers(0, len(BASE) - 1), st.integers(1, 9)).map(
    lambda start_len: BASE.slice(
        start_len[0], min(len(BASE), start_len[0] + start_len[1])
    )
)
_bandwidths = st.floats(0.5, 200.0, allow_nan=False)


@st.composite
def partition_calls(draw):
    """1-3 controller calls: (block, bandwidths, force flags)."""
    calls = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 4))
        calls.append(
            (
                draw(_slices),
                draw(st.lists(_bandwidths, min_size=n, max_size=n)),
                draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            )
        )
    return calls


@st.composite
def compression_calls(draw):
    """1-3 controller calls of 1-4 slices each (mixed lengths group)."""
    calls = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 4))
        calls.append(
            (
                draw(st.lists(_slices, min_size=n, max_size=n)),
                draw(st.lists(_bandwidths, min_size=n, max_size=n)),
            )
        )
    return calls


def _episodes(tokens, split_seed):
    """Tokens in a seeded order, split into episodes of 1-3 with rewards.

    The order decides which loss term reaches each head last, so it
    exercises the leaf-accumulation order across heads.
    """
    split = np.random.default_rng(split_seed)
    order = split.permutation(len(tokens))
    episodes = []
    cursor = 0
    while cursor < len(order):
        size = int(split.integers(1, 4))
        chunk = [tokens[i] for i in order[cursor : cursor + size]]
        cursor += size
        log_probs = [lp for lps, _ in chunk for lp in lps]
        entropies = [e for _, es in chunk for e in es]
        reward = float(split.choice([-40.0, 0.0, 3.5, 75.25, 120.0]))
        episodes.append((log_probs, reward, entropies))
    return episodes


def _run_partition(calls, seed, entropy_coeff, split_seed, reference):
    controller = PartitionController(hidden_size=8, seed=seed)
    trainer = ReinforceTrainer(controller, reward_scale=0.01, entropy_coeff=entropy_coeff)
    rng = np.random.default_rng(seed)
    logits_seen = []
    original = PartitionController.logits_batch

    def recording(self, spec, bandwidths):
        out = original(self, spec, bandwidths)
        logits_seen.append(out)
        return out

    actions, tokens = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PartitionController, "logits_batch", recording)
        if reference:
            tape_heads.install(patch)
        for spec, bandwidths, flags in calls:
            for cut, log_prob, entropy in controller.sample_batch(
                spec, bandwidths, rng, flags
            ):
                actions.append((cut, log_prob.data.tobytes()))
                tokens.append(([log_prob], [entropy] if entropy is not None else []))
        loss, _ = trainer.episode_loss(_episodes(tokens, split_seed), 3.0)
    loss.backward()
    grads = [logits.grad for logits in logits_seen]
    grads += [p.grad for p in controller.parameters()]
    return actions, loss.data.tobytes(), grads


def _run_compression(calls, seed, entropy_coeff, split_seed, reference):
    controller = CompressionController(REGISTRY, hidden_size=8, seed=seed)
    trainer = ReinforceTrainer(controller, reward_scale=0.01, entropy_coeff=entropy_coeff)
    rng = np.random.default_rng(seed)
    actions, tokens = [], []
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            tape_heads.install(patch)
        for specs, bandwidths in calls:
            for names, log_probs, entropies in controller.sample_batch(
                specs, bandwidths, rng
            ):
                values = [t.data.tobytes() for t in log_probs + entropies]
                actions.append((names, values))
                tokens.append((log_probs, entropies))
        loss, _ = trainer.episode_loss(_episodes(tokens, split_seed), -1.0)
    if loss is None:
        return actions, None, []
    loss.backward()
    return actions, loss.data.tobytes(), [p.grad for p in controller.parameters()]


def _assert_same(expected, actual):
    exp_actions, exp_loss, exp_grads = expected
    act_actions, act_loss, act_grads = actual
    assert act_actions == exp_actions
    assert act_loss == exp_loss
    assert len(act_grads) == len(exp_grads)
    for want, got in zip(exp_grads, act_grads):
        assert (want is None) == (got is None)
        if want is not None:
            assert np.array_equal(want, got)


@settings(max_examples=60, deadline=None)
@given(
    calls=partition_calls(),
    seed=st.integers(0, 2**16),
    entropy_coeff=st.sampled_from([0.0, 0.05]),
    split_seed=st.integers(0, 2**16),
)
def test_partition_head_equals_per_row_tape(calls, seed, entropy_coeff, split_seed):
    args = (calls, seed, entropy_coeff, split_seed)
    _assert_same(_run_partition(*args, True), _run_partition(*args, False))


@settings(max_examples=60, deadline=None)
@given(
    calls=compression_calls(),
    seed=st.integers(0, 2**16),
    entropy_coeff=st.sampled_from([0.0, 0.05]),
    split_seed=st.integers(0, 2**16),
)
def test_compression_head_equals_per_row_tape(calls, seed, entropy_coeff, split_seed):
    args = (calls, seed, entropy_coeff, split_seed)
    _assert_same(_run_compression(*args, True), _run_compression(*args, False))


class TestNodeCount:
    """One head node per backbone pass and one loss node per update: the
    per-row log-probs and entropies are views, not tape nodes."""

    def test_one_head_node_per_partition_call(self):
        controller = PartitionController(hidden_size=8, seed=0)
        spec = BASE.slice(0, 6)
        triples = controller.sample_batch(
            spec, [2.0, 8.0, 30.0], np.random.default_rng(0), [False, True, False]
        )
        views = [lp for _, lp, _ in triples] + [e for _, _, e in triples if e is not None]
        assert all(isinstance(v, ScalarView) for v in views)
        (head,) = {id(v.source): v.source for v in views}.values()
        (logits,) = head._parents
        assert logits.shape == (3, len(spec) + 1)
        assert head.shape == (3, 2)

    def test_one_head_node_per_compression_length_group(self):
        controller = CompressionController(REGISTRY, hidden_size=8, seed=0)
        specs = [BASE.slice(0, 5), BASE.slice(3, 8), BASE.slice(0, 7)]
        results = controller.sample_batch(specs, [2.0, 8.0, 30.0], np.random.default_rng(0))
        heads = {
            id(v.source): v.source
            for _, log_probs, entropies in results
            for v in log_probs + entropies
        }
        # Slices of length 5 share one backbone pass, the 7-layer one has its own.
        assert sorted(h._parents[0].shape for h in heads.values()) == [
            (1, 7, len(controller.technique_names)),
            (2, 5, len(controller.technique_names)),
        ]

    def test_episode_loss_is_one_node_over_the_heads(self):
        controller = PartitionController(hidden_size=8, seed=0)
        trainer = ReinforceTrainer(controller, entropy_coeff=0.1)
        rng = np.random.default_rng(1)
        first = controller.sample_batch(BASE.slice(0, 4), [2.0, 9.0], rng)
        second = controller.sample_batch(BASE.slice(4, 9), [3.0], rng)
        episodes = [
            ([first[0][1]], 10.0, [first[0][2]]),
            ([second[0][1]], 5.0, [second[0][2]]),
            ([first[1][1]], 1.0, [first[1][2]]),
        ]
        loss, _ = trainer.episode_loss(episodes, 0.0)
        first_head, second_head = first[0][1].source, second[0][1].source
        # Parents in order of each head's last loss term.
        assert loss._parents == (second_head, first_head)


def test_weighted_sum_matches_the_chain_on_plain_tensors():
    """Plain tensors, one of them twice: same value, same leaf grads."""
    leaf = Tensor(np.random.default_rng(0).normal(size=4), requires_grad=True)

    def terms():
        rng = np.random.default_rng(1)
        xs = [(leaf * Tensor(rng.normal(size=4))).sum() for _ in range(3)]
        return list(zip(xs + xs[:1], [-0.3, 1.7, 0.25, 2.0]))

    chain = None
    for x, weight in terms():
        term = x * weight
        chain = term if chain is None else chain + term
    chain.backward()
    expected = leaf.grad
    leaf.zero_grad()

    fused = weighted_sum(terms())
    assert fused.data.tobytes() == chain.data.tobytes()
    fused.backward()
    assert np.array_equal(leaf.grad, expected)


def test_scalar_view_backward_equals_indexing():
    values = np.array([[0.5, -1.0], [2.0, 3.0]])
    source = Tensor(values, requires_grad=True)
    ScalarView(source, (1, 0)).backward()
    expected = Tensor(values, requires_grad=True)
    expected[1, 0].backward()
    assert np.array_equal(source.grad, expected.grad)


def test_categorical_head_probabilities_match_softmax():
    logits = Tensor(np.array([[0.1, 2.0, -1.0], [3.0, 3.0, 0.0]]))
    head = CategoricalHead(logits, [0, 1], np.array([[True, True, True], [True, False, True]]))
    expected = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    expected[1, 1] = 0.0
    expected /= expected.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(head.probs, expected, atol=1e-12)
