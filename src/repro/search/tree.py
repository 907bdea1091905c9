"""The context-aware model tree and its search — Sec. VI, Algorithms 2–3.

A model tree is an N-depth, K-fork tree of DNN blocks. Each node holds one
block transformed from the corresponding base block; the K children of a
node are the block variants for the K bandwidth types. A node may instead
*partition*: its edge part runs locally and everything after it is inherited
from the base DNN and shipped to the cloud (cloud-flagged, never
compressed). Every root-to-terminal path is a complete runnable DNN.

Training follows the paper's two-stage episodes:

- **forward generation** — walk the (conceptual) complete tree in BFS
  order; at each reachable node sample a partition action then a
  compression action for the block under that fork's bandwidth; terminal
  nodes (leaves and partitions) get the Eqn. 7 reward of their composed
  model;
- **backward estimation** — parents collect the average of their children's
  rewards (``R_z ← R_z + R_i / K``), then every node's actions update the
  controllers with its estimated reward.

The Sec. VII-A implementation notes are all included:

- *fair-chance exploration*: decaying forced no-partition probability;
- *optimal-branch boosting*: Alg. 1 runs once per bandwidth type first
  (warm-starting the shared controllers), and the final tree starts from a
  deterministic graft of those branch solutions — "replace corresponding
  branches of the model tree with these pre-trained branches" — which both
  guarantees the tree never loses to the optimal branch (Fig. 8) and keeps
  every runtime-reachable path sane;
- the *memory pool* lives in :class:`~repro.search.context.SearchContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..model.blocks import BlockSpec, slice_into_blocks
from ..model.spec import ModelSpec
from ..obs.trace import span
from ..perf import get_registry
from ..rl.controller import NO_PARTITION
from ..rl.exploration import FairChanceSchedule
from .branch import (
    BranchPlan,
    BranchSearchResult,
    optimal_branch_search,
)
from .composer import SpecComposer
from .context import CandidateResult, SearchContext
from .plan import apply_compression_plan
from .policies import RLPolicy, SearchPolicy


@dataclass
class TreeNode:
    """One block configuration in the model tree."""

    block_index: int
    fork_index: Optional[int]  # bandwidth type selecting this node (root: None)
    bandwidth_mbps: float
    edge_spec: Optional[ModelSpec]  # this block's (compressed) edge part
    cloud_spec: Optional[ModelSpec]  # rest of the model if partitioned here
    partitioned: bool
    children: List["TreeNode"] = field(default_factory=list)
    reward: float = 0.0
    result: Optional[CandidateResult] = None
    tokens: List[object] = field(default_factory=list)
    grafted: bool = False

    @property
    def is_terminal(self) -> bool:
        return self.partitioned or not self.children

    def iter_nodes(self):
        """Yield this node and all descendants (preorder)."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()


def _collect_paths(
    node: TreeNode, prefix: List[TreeNode], paths: List[List[TreeNode]]
) -> None:
    """Append every root-to-terminal path through ``node`` to ``paths``.

    The tree walks here are module functions, not nested closures that
    call themselves: such a closure is a reference cycle, which keeps
    whatever it captures (a whole search context) alive until the cyclic
    garbage collector next runs.
    """
    path = prefix + [node]
    if node.is_terminal:
        paths.append(path)
        return
    for child in node.children:
        _collect_paths(child, path, paths)


@dataclass
class ModelTree:
    """A trained model tree plus the metadata runtime composition needs."""

    root: TreeNode
    bandwidth_types: List[float]
    base: ModelSpec
    num_blocks: int

    def branches(self) -> List[List[TreeNode]]:
        """All root-to-terminal paths."""
        paths: List[List[TreeNode]] = []
        _collect_paths(self.root, [], paths)
        return paths

    def best_branch(self) -> Tuple[List[TreeNode], float]:
        """The branch whose terminal node carries the highest reward."""
        best_path: Optional[List[TreeNode]] = None
        best_reward = -np.inf
        for path in self.branches():
            reward = path[-1].reward
            if reward > best_reward:
                best_reward = reward
                best_path = path
        assert best_path is not None
        return best_path, float(best_reward)

    def worst_branch_reward(self) -> float:
        return min(path[-1].reward for path in self.branches())

    def storage_bytes(self) -> int:
        """On-device storage of the tree with block sharing (Sec. VI-A).

        "It is possible for several DNN models to share parts of model
        parameters but also have their distinctive parts": each *node's*
        block is stored once no matter how many branches traverse it, plus
        one copy of the base model's tail for partitioned nodes (served
        from the cloud side, so not charged to the device).
        """
        total = 0
        for node in self.root.iter_nodes():
            if node.edge_spec is not None and len(node.edge_spec):
                total += node.edge_spec.parameter_bytes()
        return total

    def branches_total_bytes(self) -> int:
        """Storage if every branch were an independent model (no sharing)."""
        total = 0
        for path in self.branches():
            for node in path:
                if node.edge_spec is not None and len(node.edge_spec):
                    total += node.edge_spec.parameter_bytes()
        return total

    def sharing_factor(self) -> float:
        """How much the tree's sharing shrinks storage (≥ 1)."""
        stored = self.storage_bytes()
        if stored == 0:
            return 1.0
        return self.branches_total_bytes() / stored

    def straight_path_reward(self, fork: int) -> float:
        """Terminal reward of the path that takes fork ``fork`` at every level."""
        node = self.root
        while not node.is_terminal:
            node = node.children[min(fork, len(node.children) - 1)]
        return node.reward

    def expected_reward(self) -> float:
        """Mean straight-path reward over the K types (each equally likely)."""
        k = max(len(self.bandwidth_types), 1)
        return float(
            np.mean([self.straight_path_reward(i) for i in range(k)])
        )

    def node_count(self) -> int:
        return sum(1 for _ in self.root.iter_nodes())


@dataclass
class TreeSearchConfig:
    """Hyperparameters for Alg. 3."""

    num_blocks: int = 3
    episodes: int = 40
    branch_episodes: int = 40  # Alg. 1 budget per bandwidth type (boosting)
    boost: bool = True
    fair_chance: Optional[FairChanceSchedule] = None
    extra_plans: Tuple[BranchPlan, ...] = ()  # additional graft candidates
    seed: int = 0


@dataclass
class TreeSearchResult:
    """Outcome of Alg. 3."""

    tree: ModelTree
    best_reward: float  # best single-branch reward in the final tree
    reward_history: List[float]  # best-branch reward per episode
    best_history: List[float]  # running maximum
    branch_results: Dict[int, BranchSearchResult] = field(default_factory=dict)

    @property
    def expected_reward(self) -> float:
        """Mean straight-path reward over the bandwidth types."""
        return self.tree.expected_reward()


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------
def _compose_prefix(
    prefix: Sequence[TreeNode], composer: SpecComposer
) -> Optional[ModelSpec]:
    """Concatenate the edge parts of a path's blocks (composer-cached)."""
    return composer.concat([node.edge_spec for node in prefix])


def _cloud_suffix(
    blocks: Sequence[BlockSpec], start_block: int, composer: SpecComposer
) -> Optional[ModelSpec]:
    """The base-model remainder from ``start_block`` on (inherited, uncompressed)."""
    return composer.concat([block.model for block in blocks[start_block:]])


@dataclass(frozen=True)
class _BlockConfig:
    """One block's realization of a branch plan."""

    edge_spec: Optional[ModelSpec]
    cloud_spec: Optional[ModelSpec]
    partitioned: bool


def _block_config_from_plan(
    context: SearchContext,
    blocks: Sequence[BlockSpec],
    plan: BranchPlan,
    block_index: int,
) -> _BlockConfig:
    """Restrict a whole-model branch plan to one block."""
    block = blocks[block_index]
    if plan.partition_index <= block.start:
        # The plan cut at or before this block's start: everything from here
        # belongs to the cloud.
        return _BlockConfig(
            edge_spec=None,
            cloud_spec=_cloud_suffix(blocks, block_index, context.composer),
            partitioned=True,
        )
    partitioned = plan.partition_index < block.stop
    edge_len = (
        plan.partition_index - block.start if partitioned else len(block.model)
    )
    edge_spec = None
    if edge_len > 0:
        edge_raw = block.model.slice(0, edge_len)
        names = list(plan.compression[block.start : block.start + edge_len])
        # The plan's compression list covers the whole edge half; block
        # slices may be shorter than the plan when the cut is inside a
        # later block.
        names += ["ID"] * (edge_len - len(names))
        edge_spec = apply_compression_plan(edge_raw, names[:edge_len], context.registry).spec
    cloud_spec = None
    if partitioned:
        rest = (
            block.model.slice(edge_len, len(block.model))
            if edge_len < len(block.model)
            else None
        )
        suffix = _cloud_suffix(blocks, block_index + 1, context.composer)
        cloud_spec = context.composer.concat([rest, suffix])
    return _BlockConfig(edge_spec, cloud_spec, partitioned)


# ---------------------------------------------------------------------------
# Forward generation (episode sampling)
# ---------------------------------------------------------------------------
@dataclass
class _PendingNode:
    """A node slot awaiting generation at the current tree level."""

    fork_index: Optional[int]
    bandwidth_mbps: float
    prefix: List[TreeNode]
    parent: Optional[TreeNode]


def _generate_episode(
    context: SearchContext,
    blocks: Sequence[BlockSpec],
    policy: SearchPolicy,
    rng: np.random.Generator,
    episode: int,
    schedule: Optional[FairChanceSchedule],
    bandwidth_types: Sequence[float],
    root_bandwidth: float,
) -> TreeNode:
    """Forward generation of one episode's tree, level by level.

    All pending nodes at depth ``d`` realize the *same* base block (a
    node's block index equals its depth), so each level is generated with
    one batched partition sample and one batched compression sample over
    the level's pending forks, instead of one backbone pass per node. Per
    level, the RNG is consumed in node order: first every fair-chance
    draw, then the partition samples, then the compression samples — a
    one-wide tree therefore draws exactly what the per-node sequential
    walk would.
    """
    composer = context.composer
    root: Optional[TreeNode] = None
    pending: List[_PendingNode] = [
        _PendingNode(
            fork_index=None,
            bandwidth_mbps=root_bandwidth,
            prefix=[],
            parent=None,
        )
    ]
    for block_index, block in enumerate(blocks):
        if not pending:
            break
        force_flags = [
            bool(
                schedule is not None
                and schedule.should_force(episode, block_index, rng)
            )
            for _ in pending
        ]
        partition_results = policy.sample_partition_batch(
            block.model,
            [entry.bandwidth_mbps for entry in pending],
            rng,
            force_flags,
        )

        nodes: List[TreeNode] = []
        edge_lens: List[int] = []
        compression_slots: List[int] = []
        compression_specs: List[ModelSpec] = []
        for slot, (entry, (cut, partition_token)) in enumerate(
            zip(pending, partition_results)
        ):
            partitioned = cut != NO_PARTITION
            edge_len = len(block.model) if not partitioned else cut
            nodes.append(
                TreeNode(
                    block_index=block_index,
                    fork_index=entry.fork_index,
                    bandwidth_mbps=entry.bandwidth_mbps,
                    edge_spec=None,
                    cloud_spec=None,
                    partitioned=partitioned,
                    tokens=[partition_token] if partition_token is not None else [],
                )
            )
            edge_lens.append(edge_len)
            if edge_len > 0:
                compression_slots.append(slot)
                compression_specs.append(block.model.slice(0, edge_len))

        if compression_slots:
            compression_results = policy.sample_compression_batch(
                compression_specs,
                [pending[slot].bandwidth_mbps for slot in compression_slots],
                rng,
            )
            for slot, edge_raw, (names, compression_token) in zip(
                compression_slots, compression_specs, compression_results
            ):
                if compression_token is not None:
                    nodes[slot].tokens.append(compression_token)
                nodes[slot].edge_spec = apply_compression_plan(
                    edge_raw, names, context.registry
                ).spec

        next_pending: List[_PendingNode] = []
        for entry, node, edge_len in zip(pending, nodes, edge_lens):
            if node.partitioned:
                rest = (
                    block.model.slice(edge_len, len(block.model))
                    if edge_len < len(block.model)
                    else None
                )
                suffix = _cloud_suffix(blocks, block_index + 1, composer)
                node.cloud_spec = composer.concat([rest, suffix])
            if entry.parent is None:
                root = node
            else:
                entry.parent.children.append(node)
            path = entry.prefix + [node]
            if node.partitioned or block_index == len(blocks) - 1:
                full_edge = _compose_prefix(path, composer)
                node.result = context.evaluate(
                    full_edge, node.cloud_spec, node.bandwidth_mbps
                )
                node.reward = node.result.reward
                continue
            for k, next_bandwidth in enumerate(bandwidth_types):
                next_pending.append(
                    _PendingNode(
                        fork_index=k,
                        bandwidth_mbps=next_bandwidth,
                        prefix=path,
                        parent=node,
                    )
                )
        pending = next_pending

    assert root is not None
    return root


def _backward_estimate(node: TreeNode) -> float:
    """Backward estimation: parent reward = mean of children's (Alg. 3 l.27-31)."""
    if node.is_terminal:
        return node.reward
    total = 0.0
    for child in node.children:
        total += _backward_estimate(child)
    node.reward = total / max(len(node.children), 1)
    return node.reward


def _update_policy(policy: SearchPolicy, root: TreeNode) -> None:
    """Update controllers with every node's (actions, estimated reward).

    All nodes go in as one episode (preorder): the policy accumulates a
    single loss per controller and applies one optimizer step, with the
    EMA baseline snapshotted at episode start — so sibling advantages no
    longer depend on preorder position.
    """
    updates = [
        (node.tokens, node.reward)
        for node in root.iter_nodes()
        if node.tokens and not node.grafted
    ]
    if updates:
        policy.update_episode(updates)


# ---------------------------------------------------------------------------
# Grafted tree: deterministic composition of per-type branch solutions
# ---------------------------------------------------------------------------
def _straight_path_result(
    context: SearchContext,
    blocks: Sequence[BlockSpec],
    root_plan: BranchPlan,
    tail_plan: BranchPlan,
    bandwidth_mbps: float,
) -> CandidateResult:
    """Reward of the path using ``root_plan``'s block 0 then ``tail_plan``."""
    edge_parts: List[ModelSpec] = []
    cloud_spec: Optional[ModelSpec] = None
    for bi in range(len(blocks)):
        plan = root_plan if bi == 0 else tail_plan
        config = _block_config_from_plan(context, blocks, plan, bi)
        if config.edge_spec is not None and len(config.edge_spec):
            edge_parts.append(config.edge_spec)
        if config.partitioned:
            cloud_spec = config.cloud_spec
            break
    edge_spec = context.composer.concat(edge_parts)
    return context.evaluate(edge_spec, cloud_spec, bandwidth_mbps)


def build_grafted_tree(
    context: SearchContext,
    bandwidth_types: Sequence[float],
    candidate_plans: Sequence[BranchPlan],
    num_blocks: int,
) -> ModelTree:
    """Compose a model tree from branch plans (Sec. VII-A boosting).

    The node reached by fork ``k`` at block ``j ≥ 1`` takes the block-``j``
    configuration of the plan chosen for bandwidth type ``k``; the shared
    root takes the block-0 configuration of one root plan. Both choices are
    made to maximize the *expected* reward over the K types (each type
    equally likely — the distribution backward estimation assumes). Because
    the candidates always include each branch solution paired with itself,
    the resulting tree never scores below the best branch plan — the
    paper's boosting guarantee. Mixed paths — fork k₁ at block 1, k₂ at
    block 2 — are the cross-context branches of Fig. 8, evaluated on their
    actual composed models.
    """
    blocks = slice_into_blocks(context.base, num_blocks)
    types = list(bandwidth_types)
    plans = list(dict.fromkeys(candidate_plans))  # dedupe, keep order
    if not plans:
        raise ValueError("need at least one candidate plan")

    # Joint root/per-type selection by expected straight-path reward.
    best_root: Optional[BranchPlan] = None
    best_choice: Dict[int, BranchPlan] = {}
    best_mean = -np.inf
    for root_plan in plans:
        choice: Dict[int, BranchPlan] = {}
        total = 0.0
        root_config = _block_config_from_plan(context, blocks, root_plan, 0)
        for k, bandwidth in enumerate(types):
            if root_config.partitioned:
                # Partitioned root: the whole tree is this single plan.
                choice[k] = root_plan
                total += _straight_path_result(
                    context, blocks, root_plan, root_plan, bandwidth
                ).reward
                continue
            best_tail = max(
                plans,
                key=lambda p: _straight_path_result(
                    context, blocks, root_plan, p, bandwidth
                ).reward,
            )
            choice[k] = best_tail
            total += _straight_path_result(
                context, blocks, root_plan, best_tail, bandwidth
            ).reward
        mean = total / len(types)
        if mean > best_mean:
            best_mean = mean
            best_root = root_plan
            best_choice = choice
    assert best_root is not None
    root = _grafted_node(
        context, blocks, types, best_choice, num_blocks, 0, None, best_root, []
    )
    _backward_estimate(root)
    return ModelTree(
        root=root, bandwidth_types=types, base=context.base, num_blocks=num_blocks
    )


def _grafted_node(
    context: SearchContext,
    blocks: Sequence[BlockSpec],
    types: Sequence[float],
    best_choice: Dict[int, BranchPlan],
    num_blocks: int,
    block_index: int,
    fork_index: Optional[int],
    plan: BranchPlan,
    prefix: List[TreeNode],
) -> TreeNode:
    """Build the grafted subtree of block ``block_index`` reached by fork
    ``fork_index``: this block from ``plan``, each fork ``k`` below it from
    ``best_choice[k]``."""
    bandwidth = types[fork_index] if fork_index is not None else float(np.mean(types))
    config = _block_config_from_plan(context, blocks, plan, block_index)
    node = TreeNode(
        block_index=block_index,
        fork_index=fork_index,
        bandwidth_mbps=bandwidth,
        edge_spec=config.edge_spec,
        cloud_spec=config.cloud_spec,
        partitioned=config.partitioned,
        grafted=True,
    )
    path = prefix + [node]
    if config.partitioned or block_index == num_blocks - 1:
        full_edge = _compose_prefix(path, context.composer)
        node.result = context.evaluate(full_edge, config.cloud_spec, bandwidth)
        node.reward = node.result.reward
        return node
    for k in range(len(types)):
        node.children.append(
            _grafted_node(
                context, blocks, types, best_choice, num_blocks,
                block_index + 1, k, best_choice[k], path,
            )
        )
    return node


def graft_path(
    context: SearchContext, tree: ModelTree, donor_path: Sequence[TreeNode]
) -> None:
    """Overwrite the tree path matching ``donor_path``'s fork indices.

    Used to fold an RL-discovered branch that beats the deterministic graft
    into the final tree. Subtrees hanging off the replaced nodes are kept.
    The whole donor path is resolved against the tree's fork arities
    *before* anything is overwritten, so a donor that does not fit raises
    ``ValueError`` with the tree untouched — an earlier revision mutated
    shallower depths first and could leave a partially overwritten tree
    (masked only because the caller discarded it on the error).
    """
    targets: List[TreeNode] = []
    node = tree.root
    for depth, donor in enumerate(donor_path):
        if depth > 0:
            fork = donor.fork_index if donor.fork_index is not None else 0
            if fork >= len(node.children):
                raise ValueError("donor path does not fit the tree's fork arity")
            node = node.children[fork]
        targets.append(node)
    for donor, node in zip(donor_path, targets):
        node.edge_spec = donor.edge_spec
        node.cloud_spec = donor.cloud_spec
        node.partitioned = donor.partitioned
        node.grafted = True
        node.tokens = []
        if donor.is_terminal:
            node.children = []
            node.result = donor.result
            node.reward = donor.reward
    _refresh_subtree_rewards(context, tree)


def _refresh_subtree_rewards(context: SearchContext, tree: ModelTree) -> None:
    """Re-evaluate every terminal against its (possibly changed) prefix."""
    _refresh_terminals(context, tree.root, [])
    _backward_estimate(tree.root)


def _refresh_terminals(
    context: SearchContext, node: TreeNode, prefix: List[TreeNode]
) -> None:
    path = prefix + [node]
    if node.is_terminal:
        full_edge = _compose_prefix(path, context.composer)
        node.result = context.evaluate(full_edge, node.cloud_spec, node.bandwidth_mbps)
        node.reward = node.result.reward
        return
    for child in node.children:
        _refresh_terminals(context, child, path)


# ---------------------------------------------------------------------------
# Algorithm 3
# ---------------------------------------------------------------------------
def model_tree_search(
    context: SearchContext,
    bandwidth_types: Sequence[float],
    policy: Optional[SearchPolicy] = None,
    config: Optional[TreeSearchConfig] = None,
) -> TreeSearchResult:
    """Algorithm 3: train the controllers and return the best model tree."""
    config = config or TreeSearchConfig()
    if policy is None:
        policy = RLPolicy(context.registry, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    blocks = slice_into_blocks(context.base, config.num_blocks)
    types = list(bandwidth_types)
    if not types:
        raise ValueError("need at least one bandwidth type")
    # The root block is shared by every branch (Fig. 3/8 show a single
    # root), so it is generated under the mean of the K context bandwidths.
    schedule = config.fair_chance or FairChanceSchedule(
        num_blocks=config.num_blocks,
        decay_episodes=max(2, config.episodes // 3),
    )

    # ---- optimal-branch boosting (Sec. VII-A) -------------------------
    branch_results: Dict[int, BranchSearchResult] = {}
    if config.boost:
        for idx, bandwidth in enumerate(types):
            branch_results[idx] = optimal_branch_search(
                context,
                bandwidth,
                policy,
                episodes=config.branch_episodes,
                seed=config.seed + 17 * (idx + 1),
            )

    # ---- episode loop ---------------------------------------------------
    best_sampled: Optional[ModelTree] = None
    best_sampled_reward = -np.inf
    history: List[float] = []
    best_history: List[float] = []
    root_bandwidth = float(np.mean(types))

    for episode in range(config.episodes):
        get_registry().count("tree.episodes")
        with span("tree.episode", episode=episode) as obs_span:
            with span("tree.forward"):
                root = _generate_episode(
                    context,
                    blocks,
                    policy,
                    rng=rng,
                    episode=episode,
                    schedule=schedule,
                    bandwidth_types=types,
                    root_bandwidth=root_bandwidth,
                )
            with span("tree.backward"):
                _backward_estimate(root)
                _update_policy(policy, root)

            tree = ModelTree(
                root=root, bandwidth_types=types, base=context.base,
                num_blocks=config.num_blocks,
            )
            _, branch_reward = tree.best_branch()
            obs_span.add(
                best_branch_reward=float(branch_reward),
                nodes=tree.node_count(),
            )
        history.append(branch_reward)
        if branch_reward > best_sampled_reward:
            best_sampled_reward = branch_reward
            best_sampled = tree
        best_history.append(max(best_history[-1], branch_reward) if best_history else branch_reward)

    # ---- final tree -----------------------------------------------------
    if config.boost and branch_results:
        candidate_plans = [r.plan for r in branch_results.values()] + list(
            config.extra_plans
        )
        with span("tree.graft", candidates=len(candidate_plans)):
            final = build_grafted_tree(
                context, types, candidate_plans, config.num_blocks
            )
        _, final_reward = final.best_branch()
        # Fold in the RL-discovered branch when it beats the graft.
        if best_sampled is not None and best_sampled_reward > final_reward:
            donor_path, _ = best_sampled.best_branch()
            try:
                graft_path(context, final, donor_path)
            except ValueError:
                final = best_sampled
        _, final_reward = final.best_branch()
        # Boosting must never lose to plain sampling within a run.
        if best_sampled is not None and best_sampled_reward > final_reward:
            final = best_sampled
            final_reward = best_sampled_reward
    else:
        assert best_sampled is not None
        final = best_sampled
        _, final_reward = final.best_branch()

    return TreeSearchResult(
        tree=final,
        best_reward=float(final_reward),
        reward_history=history,
        best_history=best_history,
        branch_results=branch_results,
    )
