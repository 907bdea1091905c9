"""Design-space sweeps over the tree's N (blocks) and K (bandwidth types).

The paper fixes N = 3 and K = 2 ("we set the total number of blocks N = 3
and the number of bandwidth types K = 2") without exploring alternatives.
This module sweeps both knobs on one scene and replays every resulting tree
through the same emulation, quantifying the trade-off the choice implies:

- more blocks / more types → finer runtime adaptivity (higher replay
  reward in fluctuating scenes) but a bigger tree (more storage, longer
  search);
- K = 1 degenerates to the optimal branch, N = 1 to a whole-model choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..network.scenarios import Scenario, get_scenario
from ..runtime.emulator import run_emulation
from ..runtime.engine import TreePlan
from ..runtime.pool import PoolTask
from ..runtime.workers import worker_safe
from ..search.tree import TreeSearchConfig, model_tree_search
from .common import (
    ExperimentConfig,
    PoolOptions,
    build_context,
    build_environment,
    format_table,
)


def sweep_task_id(num_blocks: int, num_types: int) -> str:
    """Stable journal/chaos key for one (N, K) cell."""
    return f"N{num_blocks}K{num_types}"


@dataclass(frozen=True)
class SweepRow:
    """One (N, K) configuration's offline and replay outcome."""

    num_blocks: int
    num_types: int
    node_count: int
    branch_count: int
    expected_reward: float
    replay_reward: float
    replay_latency_ms: float
    storage_mb: float
    sharing_factor: float


@worker_safe
def sweep_cell(
    scenario: Scenario,
    num_blocks: int,
    num_types: int,
    config: ExperimentConfig,
) -> SweepRow:
    """Train and replay one (N, K) cell — the unit a pool worker runs.

    Everything here is derived from the arguments: the search context,
    trace and environment are built fresh per cell, and every random
    stream is seeded from ``config.seed``, so cells are independent and
    safe to fan out across processes (ROADMAP: multiprocessing fan-out).
    """
    context = build_context(scenario)
    trace = scenario.trace(duration_s=config.trace_duration_s)
    bandwidth_types = trace.bandwidth_types(num_types)
    result = model_tree_search(
        context,
        bandwidth_types,
        config=TreeSearchConfig(
            num_blocks=num_blocks,
            episodes=config.tree_episodes,
            branch_episodes=config.branch_episodes,
            seed=config.seed,
        ),
    )
    env = build_environment(scenario, context, trace)
    replay = run_emulation(
        TreePlan(result.tree),
        env,
        num_requests=config.emulation_requests,
        seed=config.seed + 11,
    )
    return SweepRow(
        num_blocks=num_blocks,
        num_types=num_types,
        node_count=result.tree.node_count(),
        branch_count=len(result.tree.branches()),
        expected_reward=result.expected_reward,
        replay_reward=replay.mean_reward,
        replay_latency_ms=replay.mean_latency_ms,
        storage_mb=result.tree.storage_bytes() / 1e6,
        sharing_factor=result.tree.sharing_factor(),
    )


def run_sweep(
    scenario_key: Tuple[str, str, str] = ("vgg11", "phone", "4G (weak) indoor"),
    blocks: Sequence[int] = (1, 2, 3, 4),
    types: Sequence[int] = (1, 2, 3),
    config: Optional[ExperimentConfig] = None,
    pool_options: Optional[PoolOptions] = None,
) -> List[SweepRow]:
    """Train and replay a model tree for every (N, K) combination.

    With ``pool_options.workers > 1`` the cells fan out across the
    fault-tolerant pool; every cell is fully seeded by its arguments, so
    the parallel rows are identical to the serial ones.
    """
    config = config or ExperimentConfig()
    scenario = get_scenario(*scenario_key)
    tasks = [
        PoolTask(sweep_task_id(n, k), args=(scenario, n, k, config))
        for n in blocks
        for k in types
    ]
    return (pool_options or PoolOptions()).map(sweep_cell, tasks)


def render_sweep(rows: List[SweepRow]) -> str:
    return format_table(
        ["N", "K", "Nodes", "Branches", "E[reward]", "Replay R", "Replay ms",
         "Storage MB", "Sharing×"],
        [
            [
                r.num_blocks,
                r.num_types,
                r.node_count,
                r.branch_count,
                f"{r.expected_reward:.1f}",
                f"{r.replay_reward:.1f}",
                f"{r.replay_latency_ms:.1f}",
                f"{r.storage_mb:.1f}",
                f"{r.sharing_factor:.2f}",
            ]
            for r in rows
        ],
    )


def main(
    config: Optional[ExperimentConfig] = None,
    pool_options: Optional[PoolOptions] = None,
) -> str:
    rows = run_sweep(config=config, pool_options=pool_options)
    output = (
        "Design-space sweep: tree depth N x fork arity K "
        "('4G (weak) indoor', phone, VGG11)\n" + render_sweep(rows)
    )
    print(output)
    return output


if __name__ == "__main__":
    main()
