"""Optimal-branch search — Algorithm 1 of the paper.

Searches a (partition, compression) plan for the *whole* base DNN under one
constant bandwidth: sample a cut from the partition controller, compress the
edge half layer-by-layer with the compression controller, concatenate with
the untouched cloud half, score with Eqn. 7, and REINFORCE both controllers.
The candidate with the highest reward wins.

"Compared to model tree, the method in this section works like searching on
a particular branch of the tree. So we name it as 'optimal branch.'"
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..contracts import require_positive
from ..model.spec import ModelSpec
from ..obs.trace import span
from ..perf import get_registry
from ..rl.controller import NO_PARTITION
from .context import CandidateResult, SearchContext
from .plan import apply_compression_plan
from .policies import SearchPolicy


@dataclass(frozen=True)
class BranchPlan:
    """The raw actions behind a branch solution, in base-layer coordinates."""

    partition_index: int  # edge keeps base layers [0, partition_index)
    compression: Tuple[str, ...]  # technique per edge base layer


@dataclass
class BranchSearchResult:
    """Outcome of Alg. 1."""

    best: CandidateResult
    plan: BranchPlan
    reward_history: List[float] = field(default_factory=list)
    best_history: List[float] = field(default_factory=list)

    @property
    def best_reward(self) -> float:
        return self.best.reward


def realize_branch_plan(
    context: SearchContext, plan: BranchPlan, bandwidth_mbps: float
) -> CandidateResult:
    """Evaluate a branch plan against the context (used by grafting too)."""
    require_positive(bandwidth_mbps, "bandwidth_mbps")
    base = context.base
    p = plan.partition_index
    if p == 0:
        return context.evaluate(None, base, bandwidth_mbps)
    edge_raw = base.slice(0, p)
    applied = apply_compression_plan(edge_raw, list(plan.compression), context.registry)
    cloud = base.slice(p, len(base)) if p < len(base) else None
    return context.evaluate(applied.spec, cloud, bandwidth_mbps)


def optimal_branch_search(
    context: SearchContext,
    bandwidth_mbps: float,
    policy: SearchPolicy,
    episodes: int = 60,
    seed: int = 0,
    seed_plans: Optional[Sequence[BranchPlan]] = None,
    include_pure_partitions: bool = True,
) -> BranchSearchResult:
    """Algorithm 1: joint partition + compression search at one bandwidth.

    ``include_pure_partitions`` evaluates every compression-free cut before
    the episodes start. The branch search space strictly contains the
    partition-only space, so its converged optimum can never lose to
    Dynamic DNN Surgery; seeding makes that hold at any episode budget
    (the paper reaches the same guarantee by training to convergence).
    ``seed_plans`` adds further warm-start candidates.
    """
    require_positive(bandwidth_mbps, "bandwidth_mbps")
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    rng = np.random.default_rng(seed)
    base = context.base

    best: Optional[CandidateResult] = None
    best_plan: Optional[BranchPlan] = None
    history: List[float] = []
    best_history: List[float] = []

    initial_plans: List[BranchPlan] = list(seed_plans or [])
    if include_pure_partitions:
        initial_plans += [
            BranchPlan(p, tuple(["ID"] * p)) for p in range(len(base) + 1)
        ]
    for plan in initial_plans:
        candidate = realize_branch_plan(context, plan, bandwidth_mbps)
        if best is None or candidate.reward > best.reward:
            best = candidate
            best_plan = plan

    for episode in range(episodes):
        get_registry().count("branch.episodes")
        with span("branch.episode", episode=episode, bandwidth_mbps=bandwidth_mbps) as obs_span:
            cut, partition_token = policy.sample_partition(base, bandwidth_mbps, rng)
            partition_index = len(base) if cut == NO_PARTITION else cut

            tokens = [partition_token]
            if partition_index > 0:
                edge_raw = base.slice(0, partition_index)
                names, compression_token = policy.sample_compression(
                    edge_raw, bandwidth_mbps, rng
                )
                tokens.append(compression_token)
            else:
                names = []

            plan = BranchPlan(partition_index, tuple(names))
            result = realize_branch_plan(context, plan, bandwidth_mbps)

            # One-episode batch: for a single episode the snapshotted
            # baseline equals the sequential pre-update EMA, so this is
            # exactly the historical per-episode update — but through the
            # same accumulated-loss path the tree search uses.
            policy.update_episode(
                [([t for t in tokens if t is not None], result.reward)]
            )
            obs_span.add(
                reward=result.reward,
                partition_index=partition_index,
                compression=list(names),
            )
        history.append(result.reward)
        if best is None or result.reward > best.reward:
            best = result
            best_plan = plan
        best_history.append(best.reward)

    assert best is not None and best_plan is not None
    return BranchSearchResult(
        best=best,
        plan=best_plan,
        reward_history=history,
        best_history=best_history,
    )
