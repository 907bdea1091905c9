"""Parallel experiment fan-out: pool path == serial path, CLI wiring."""

import pytest

from repro.experiments.common import (
    ExperimentConfig,
    PoolOptions,
    run_scenarios,
    scenario_task_id,
)
from repro.experiments.parallel import run_parallel_check
from repro.network.scenarios import ALL_SCENARIOS, get_scenario
from repro.runtime.faults import PoolChaos, WorkerCrash

TINY = ExperimentConfig(tree_episodes=2, branch_episodes=3, seed=0)

SCENES = [
    get_scenario("vgg11", "phone", "4G indoor static"),
    get_scenario("vgg11", "phone", "4G (weak) indoor"),
    get_scenario("alexnet", "phone", "4G indoor static"),
]


def _rewards(outcomes):
    return [
        (o.surgery.offline_reward, o.branch.offline_reward, o.tree.offline_reward)
        for o in outcomes
    ]


class TestRunScenariosParallel:
    def test_parallel_matches_serial_exactly(self):
        serial = run_scenarios(SCENES, TINY, run_field=False, run_emu=False)
        options = PoolOptions(workers=2)
        parallel = run_scenarios(
            SCENES, TINY, run_field=False, run_emu=False, pool_options=options
        )
        assert _rewards(parallel) == _rewards(serial)
        assert [o.scenario.key for o in parallel] == [s.key for s in SCENES]
        assert options.last_report is not None
        assert options.last_report.crashes == 0

    def test_chaos_injected_parallel_still_matches_serial(self, tmp_path):
        serial = run_scenarios(SCENES, TINY, run_field=False, run_emu=False)
        chaos = PoolChaos((WorkerCrash(scenario_task_id(SCENES[1])),))
        options = PoolOptions(
            workers=2, journal=str(tmp_path / "j.jsonl"), chaos=chaos
        )
        parallel = run_scenarios(
            SCENES, TINY, run_field=False, run_emu=False, pool_options=options
        )
        assert _rewards(parallel) == _rewards(serial)
        assert options.last_report.crashes >= 1
        assert options.last_report.retries >= 1

    def test_workers_zero_is_the_serial_path(self):
        options = PoolOptions(workers=0)
        assert not options.parallel
        outcomes = run_scenarios(
            SCENES[:1], TINY, run_field=False, run_emu=False, pool_options=options
        )
        assert len(outcomes) == 1
        assert options.last_report is None


class TestSharedJournal:
    def test_table4_after_table3_on_one_journal_matches_serial(self, tmp_path):
        """Table III journals scenes run without replays; Table IV on the
        same journal must re-run them, not replay outcomes that lack the
        emulation it reads."""
        from repro.experiments.table3 import run_table3
        from repro.experiments.table45 import run_tables45

        journal = str(tmp_path / "shared.jsonl")
        scenes = SCENES[:2]
        run_table3(TINY, scenes, pool_options=PoolOptions(workers=2, journal=journal))
        options = PoolOptions(workers=2, journal=journal)
        shared = run_tables45(TINY, scenes, pool_options=options)
        assert shared == run_tables45(TINY, scenes)
        assert options.last_report.resumed == 0


class TestParallelCheckExperiment:
    def test_resume_and_crash_recovery_verdict(self, tmp_path):
        report = run_parallel_check(
            TINY,
            PoolOptions(
                workers=2,
                journal=str(tmp_path / "journal.jsonl"),
                report_path=str(tmp_path / "pool.json"),
            ),
            scenarios=SCENES,
        )
        assert report.ok, report.mismatches
        assert report.phase1_scenes == 1
        assert report.resumed == 1
        assert report.crashes >= 1
        assert report.retries >= 1
        assert (tmp_path / "pool.json").exists()

    def test_degraded_run_is_a_named_mismatch(self, tmp_path, monkeypatch):
        from repro.runtime.pool import FaultTolerantPool

        def no_workers(self, result_queue):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(FaultTolerantPool, "_spawn_worker", no_workers)
        report = run_parallel_check(
            TINY,
            PoolOptions(workers=2, journal=str(tmp_path / "journal.jsonl")),
            scenarios=SCENES[:2],
        )
        assert report.pool_report.degraded_to_serial
        assert not report.ok
        assert any("in-process" in line for line in report.mismatches)

    def test_covers_all_14_scenes_by_default(self):
        # The full check is CI's job (make sweep-parallel); here we only
        # pin the default scene set so CI exercises what the paper reports.
        assert len(ALL_SCENARIOS) == 14


class TestCliWiring:
    def test_workers_flag_reaches_the_pool(self, capsys):
        from repro.experiments.__main__ import main

        code = main(
            [
                "table3",
                "--tree-episodes", "2",
                "--branch-episodes", "3",
                "--workers", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table III" in out

    def test_inject_crash_flag_builds_chaos(self):
        from repro.experiments.__main__ import main

        # A real scene id: the injected crash fires on its first attempt
        # and the retry still completes the table.
        code = main(
            [
                "table3",
                "--tree-episodes", "2",
                "--branch-episodes", "3",
                "--workers", "2",
                "--inject-crash", "vgg11|phone|4G indoor static",
            ]
        )
        assert code == 0


POOL_ONLY_FLAGS = [
    ["--journal", "j.jsonl"],
    ["--pool-report", "pool.json"],
    ["--trace-dir", "traces"],
    ["--inject-crash", "vgg11|phone|4G indoor static"],
]


class TestCliRejectsIgnoredPoolFlags:
    @pytest.mark.parametrize("flag", POOL_ONLY_FLAGS, ids=lambda f: f[0])
    @pytest.mark.parametrize(
        "head",
        [["table3"], ["table3", "--workers", "1"], ["table1", "--workers", "2"]],
        ids=["no-workers", "one-worker", "not-pool-aware"],
    )
    def test_exits_2(self, head, flag, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(head + flag)
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err
