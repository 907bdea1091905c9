"""Batched RL episode hot path: tree episodes vs the per-node walk.

Forward generation of a tree episode visits K^d same-block nodes per
level; the batched path runs each level through the controllers as one
(N, T, W) backbone pass and folds the whole episode into a single
optimizer step per controller. The bench replays the same episode budget
through the current ``model_tree_search`` and through a faithful
reconstruction of the pre-batching path — one backbone pass per node
(one-row ``sample_partition_batch`` / ``sample_compression_batch`` calls),
inline concatenation folds, and one REINFORCE backward/step per node (a
one-node ``update_episode`` each) — asserting the batched episodes
are at least 3x faster (locally ≥5x; the CI gate leaves headroom for
noisy runners). The measured speedup lands in ``extra_info`` so
``make bench-episode`` persists it in ``BENCH_episode.json``.
"""

import time

import numpy as np
import pytest

from repro.model.blocks import slice_into_blocks
from repro.nn.zoo import vgg11
from repro.rl.controller import NO_PARTITION
from repro.rl.exploration import FairChanceSchedule
from repro.search.plan import apply_compression_plan
from repro.search.policies import RLPolicy
from repro.search.tree import TreeNode, TreeSearchConfig, model_tree_search
from tests.conftest import make_context

EPISODES = 4
NUM_BLOCKS = 3
TYPES = (3.0, 10.0, 40.0)
SEED = 2


def _legacy_cloud_suffix(blocks, start_block):
    if start_block >= len(blocks):
        return None
    spec = blocks[start_block].model
    for block in blocks[start_block + 1 :]:
        spec = spec.concatenate(block.model)
    return spec


def _legacy_compose_prefix(path):
    spec = None
    for node in path:
        if node.edge_spec is not None and len(node.edge_spec):
            spec = node.edge_spec if spec is None else spec.concatenate(node.edge_spec)
    return spec


def _legacy_generate_node(
    context, blocks, policy, rng, episode, schedule, types,
    block_index, fork_index, bandwidth, prefix,
):
    """The pre-batching forward generation: one controller pass per node."""
    block = blocks[block_index]
    force = bool(schedule.should_force(episode, block_index, rng))
    cut, partition_token = policy.sample_partition_batch(
        block.model, [bandwidth], rng, [force]
    )[0]
    partitioned = cut != NO_PARTITION
    edge_len = len(block.model) if not partitioned else cut
    tokens = [partition_token] if partition_token is not None else []
    edge_spec = None
    if edge_len > 0:
        edge_raw = block.model.slice(0, edge_len)
        names, compression_token = policy.sample_compression_batch(
            [edge_raw], [bandwidth], rng
        )[0]
        if compression_token is not None:
            tokens.append(compression_token)
        edge_spec = apply_compression_plan(edge_raw, names, context.registry).spec
    cloud_spec = None
    if partitioned:
        rest = (
            block.model.slice(edge_len, len(block.model))
            if edge_len < len(block.model)
            else None
        )
        suffix = _legacy_cloud_suffix(blocks, block_index + 1)
        if rest is not None and suffix is not None:
            cloud_spec = rest.concatenate(suffix)
        else:
            cloud_spec = rest if rest is not None else suffix
    node = TreeNode(
        block_index=block_index,
        fork_index=fork_index,
        bandwidth_mbps=bandwidth,
        edge_spec=edge_spec,
        cloud_spec=cloud_spec,
        partitioned=partitioned,
        tokens=tokens,
    )
    path = prefix + [node]
    if partitioned or block_index == len(blocks) - 1:
        node.result = context.evaluate(_legacy_compose_prefix(path), cloud_spec, bandwidth)
        node.reward = node.result.reward
        return node
    for k, next_bandwidth in enumerate(types):
        node.children.append(
            _legacy_generate_node(
                context, blocks, policy, rng, episode, schedule, types,
                block_index + 1, k, next_bandwidth, path,
            )
        )
    return node


def _legacy_backward(node):
    if node.is_terminal:
        return node.reward
    node.reward = sum(_legacy_backward(c) for c in node.children) / max(
        len(node.children), 1
    )
    return node.reward


def _run_legacy(context, policy):
    """EPISODES episodes of the per-node sequential path."""
    rng = np.random.default_rng(SEED)
    blocks = slice_into_blocks(context.base, NUM_BLOCKS)
    schedule = FairChanceSchedule(
        num_blocks=NUM_BLOCKS, decay_episodes=max(2, EPISODES // 3)
    )
    root_bandwidth = float(np.mean(TYPES))
    for episode in range(EPISODES):
        root = _legacy_generate_node(
            context, blocks, policy, rng, episode, schedule, list(TYPES),
            0, None, root_bandwidth, [],
        )
        _legacy_backward(root)
        for node in root.iter_nodes():
            if node.tokens:
                # One step per node.
                policy.update_episode([(node.tokens, node.reward)])


def _run_batched(context, policy):
    model_tree_search(
        context,
        list(TYPES),
        policy=policy,
        config=TreeSearchConfig(
            num_blocks=NUM_BLOCKS, episodes=EPISODES, boost=False, seed=SEED
        ),
    )


def test_bench_batched_episodes_vs_sequential(benchmark):
    # Warm both contexts (memo pools, lazy fingerprints) with one budget
    # so the timed passes compare the steady episode loop, not cold caches.
    legacy_context = make_context(vgg11(), 0.9201)
    _run_legacy(legacy_context, RLPolicy(legacy_context.registry, seed=SEED))
    batched_context = make_context(vgg11(), 0.9201)
    _run_batched(batched_context, RLPolicy(batched_context.registry, seed=SEED))

    start = time.perf_counter()
    _run_legacy(legacy_context, RLPolicy(legacy_context.registry, seed=SEED))
    legacy_s = time.perf_counter() - start

    def batched():
        _run_batched(batched_context, RLPolicy(batched_context.registry, seed=SEED))

    benchmark.pedantic(batched, rounds=10, iterations=1)
    batched_s = benchmark.stats.stats.min

    speedup = legacy_s / batched_s
    compose_stats = batched_context.composer.stats
    benchmark.extra_info["speedup_vs_sequential"] = round(speedup, 2)
    benchmark.extra_info["sequential_episode_ms"] = round(
        legacy_s / EPISODES * 1e3, 2
    )
    benchmark.extra_info["batched_episode_ms"] = round(
        batched_s / EPISODES * 1e3, 2
    )
    benchmark.extra_info["compose_hit_rate"] = round(compose_stats.hit_rate, 4)

    assert speedup >= 3.0, f"batched episode path only {speedup:.2f}x faster"
