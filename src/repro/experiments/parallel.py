"""Parallel-sweep equivalence check — chaos-injected pool vs serial.

The fault-tolerant pool's whole contract is *"parallelism and faults
change wall time, never numbers"*. This experiment proves it end to end
on the paper's 14 evaluation scenes:

1. run the Table III search serially — the reference numbers;
2. phase 1: run a **subset** of scenes through the pool with a result
   journal, then stop — emulating a sweep killed partway;
3. phase 2: rerun **all** scenes against the same journal with a
   :class:`~repro.runtime.faults.WorkerCrash` injected into one of the
   remaining scenes — the resume path must replay the journaled subset
   from disk, retry the crashed scene, and finish the rest;
4. assert the resumed+chaos-injected parallel rewards are *exactly*
   (bit-for-bit) the serial ones, and that the pool report shows the
   resume and the recovery actually happened in worker processes (a
   pool that degraded to in-process attempts fails the check).

A mismatch raises — CI runs this via ``make sweep-parallel``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..network.scenarios import ALL_SCENARIOS, Scenario
from ..runtime.faults import PoolChaos, WorkerCrash
from ..runtime.pool import PoolReport
from .common import (
    ExperimentConfig,
    PoolOptions,
    ScenarioOutcome,
    format_table,
    run_scenarios,
    scenario_task_id,
)

#: The three offline rewards — the numbers Table III prints.
Rewards = Tuple[float, float, float]


def _rewards(outcome: ScenarioOutcome) -> Rewards:
    return (
        outcome.surgery.offline_reward,
        outcome.branch.offline_reward,
        outcome.tree.offline_reward,
    )


@dataclass
class ParallelCheckReport:
    """Outcome of the serial-vs-parallel equivalence check."""

    scenes: int
    phase1_scenes: int
    resumed: int
    crashes: int
    retries: int
    mismatches: List[str]
    pool_report: PoolReport

    @property
    def ok(self) -> bool:
        return not self.mismatches


def run_parallel_check(
    config: Optional[ExperimentConfig] = None,
    pool_options: Optional[PoolOptions] = None,
    scenarios: Optional[List[Scenario]] = None,
) -> ParallelCheckReport:
    """Serial reference vs journaled, chaos-injected parallel rerun."""
    import tempfile
    from pathlib import Path

    scenarios = list(scenarios or ALL_SCENARIOS)
    if not scenarios:
        raise ValueError("run_parallel_check needs at least one scene")
    options = pool_options or PoolOptions()
    workers = max(2, options.workers)

    journal = options.journal or str(
        Path(tempfile.mkdtemp(prefix="repro-pool-")) / "journal.jsonl"
    )
    # The check must start from a clean journal: a stale one would make
    # "resume" a no-op and the equality trivially vacuous.
    Path(journal).unlink(missing_ok=True)

    serial = run_scenarios(scenarios, config, run_field=False, run_emu=False)
    reference: Dict[str, Rewards] = {
        scenario_task_id(o.scenario): _rewards(o) for o in serial
    }

    # Phase 1 — half the sweep completes, journaled, then the "process
    # dies" (we simply stop driving it).
    phase1 = scenarios[: len(scenarios) // 2]
    if phase1:
        run_scenarios(
            phase1,
            config,
            run_field=False,
            run_emu=False,
            pool_options=PoolOptions(
                workers=workers, journal=journal, trace_dir=options.trace_dir
            ),
        )

    # Phase 2 — resume the full sweep from the journal, with a worker
    # crash injected into the first not-yet-journaled scene (unless the
    # caller scheduled their own chaos).
    chaos = options.chaos
    if chaos is None:
        victim = scenario_task_id(scenarios[len(phase1)])
        chaos = PoolChaos((WorkerCrash(victim),))
    phase2_options = PoolOptions(
        workers=workers,
        journal=journal,
        report_path=options.report_path,
        chaos=chaos,
        trace_dir=options.trace_dir,
    )
    parallel = run_scenarios(
        scenarios,
        config,
        run_field=False,
        run_emu=False,
        pool_options=phase2_options,
    )
    pool_report = phase2_options.last_report

    mismatches = []
    for outcome in parallel:
        task_id = scenario_task_id(outcome.scenario)
        if _rewards(outcome) != reference[task_id]:
            mismatches.append(
                f"{task_id}: parallel {_rewards(outcome)} != "
                f"serial {reference[task_id]}"
            )
    if pool_report.resumed != len(phase1):
        mismatches.append(
            f"expected {len(phase1)} scenes resumed from the journal, "
            f"pool report says {pool_report.resumed}"
        )
    # A degraded run finished its attempts in-process, so it proves
    # nothing about recovery across worker processes.
    if pool_report.degraded_to_serial:
        mismatches.append(
            "no worker process could be started: the pool degraded to "
            "in-process attempts, so no real crash was recovered"
        )
    if pool_report.crashes < 1:
        mismatches.append("injected WorkerCrash never fired")
    if pool_report.retries < 1:
        mismatches.append("crashed scene was never retried")

    return ParallelCheckReport(
        scenes=len(scenarios),
        phase1_scenes=len(phase1),
        resumed=pool_report.resumed,
        crashes=pool_report.crashes,
        retries=pool_report.retries,
        mismatches=mismatches,
        pool_report=pool_report,
    )


def main(
    config: Optional[ExperimentConfig] = None,
    pool_options: Optional[PoolOptions] = None,
) -> ParallelCheckReport:
    report = run_parallel_check(config, pool_options)
    print("Parallel sweep equivalence check (chaos-injected resume)")
    print(
        format_table(
            ["scenes", "phase-1", "resumed", "crashes", "retries", "verdict"],
            [
                [
                    report.scenes,
                    report.phase1_scenes,
                    report.resumed,
                    report.crashes,
                    report.retries,
                    "IDENTICAL" if report.ok else "MISMATCH",
                ]
            ],
        )
    )
    if not report.ok:
        for line in report.mismatches:
            print(f"  !! {line}")
        raise RuntimeError(
            f"parallel sweep diverged from serial: {report.mismatches}"
        )
    print(
        "resumed+retried parallel rewards are bit-identical to the "
        "serial run"
    )
    return report


if __name__ == "__main__":
    main()
