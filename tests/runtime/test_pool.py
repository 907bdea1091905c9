"""Fault-tolerant pool: crash/hang recovery, degradation, resume."""

import json

import pytest

from repro.obs import span
from repro.perf import get_registry
from repro.runtime.faults import (
    PoolChaos,
    PoolFaultEvent,
    WorkerCrash,
    WorkerHang,
)
from repro.runtime.pool import (
    _BACKOFF_BASE_S,
    FaultTolerantPool,
    PoolConfig,
    PoolTask,
    ResultJournal,
    merge_perf_snapshots,
)
from repro.runtime.workers import worker_safe


# Task functions live at module level so they pickle into workers.
@worker_safe
def _double(x):
    return 2 * x


@worker_safe
def _fail_if_poison(x, poison=False):
    if poison:
        raise ValueError(f"poison task {x}")
    return x


@worker_safe
def _count_and_double(x, marker_dir=None):
    # Side-effect breadcrumb: one file per execution, so tests can count
    # how many times a task actually ran (resume must NOT re-run).
    if marker_dir is not None:
        import uuid
        from pathlib import Path

        stamp = Path(marker_dir) / f"ran-{x}-{uuid.uuid4().hex}"
        stamp.write_text(str(x))
    return 2 * x


@worker_safe
def _count_in_perf(x):
    get_registry().count("pool.test.calls")
    with span("pool.test.work"):
        pass
    return x


def _tasks(n):
    return [PoolTask(f"t{i}", args=(i,)) for i in range(n)]


def _fast_config(**overrides):
    defaults = dict(
        num_workers=2,
        task_timeout_s=10.0,
        max_retries=2,
    )
    defaults.update(overrides)
    return PoolConfig(**defaults)


class TestHappyPath:
    def test_results_in_task_order_match_serial(self):
        pool = FaultTolerantPool(_fast_config())
        outcome = pool.run(_double, _tasks(6))
        assert outcome.require_complete() == [2 * i for i in range(6)]
        assert outcome.task_order == [f"t{i}" for i in range(6)]
        assert outcome.report.crashes == 0
        assert outcome.report.retries == 0
        assert all(r.status == "ok" for r in outcome.report.tasks)

    def test_more_workers_than_tasks(self):
        pool = FaultTolerantPool(_fast_config(num_workers=4))
        outcome = pool.run(_double, _tasks(2))
        assert outcome.require_complete() == [0, 2]

    def test_rejects_unmarked_function(self):
        def bare(x):
            return x

        pool = FaultTolerantPool(_fast_config())
        with pytest.raises(ValueError, match="worker_safe"):
            pool.run(bare, _tasks(1))

    def test_rejects_duplicate_task_ids(self):
        pool = FaultTolerantPool(_fast_config())
        tasks = [PoolTask("same", args=(1,)), PoolTask("same", args=(2,))]
        with pytest.raises(ValueError, match="unique"):
            pool.run(_double, tasks)

    def test_no_tasks_is_a_clean_noop(self):
        outcome = FaultTolerantPool(_fast_config()).run(_double, [])
        assert outcome.require_complete() == []


class TestChaosRecovery:
    def test_worker_crash_is_retried_and_worker_replaced(self):
        chaos = PoolChaos((WorkerCrash("t0", exit_code=21),))
        pool = FaultTolerantPool(_fast_config(), chaos=chaos)
        outcome = pool.run(_double, _tasks(4))
        assert outcome.require_complete() == [0, 2, 4, 6]
        assert outcome.report.crashes >= 1
        assert outcome.report.workers_replaced >= 1
        record = outcome.report.tasks[0]
        assert record.attempts == 2
        assert any("crash" in f for f in record.failures)

    def test_hung_worker_is_killed_and_task_retried(self):
        chaos = PoolChaos((WorkerHang("t0", hang_s=60.0),))
        pool = FaultTolerantPool(_fast_config(task_timeout_s=0.3), chaos=chaos)
        outcome = pool.run(_double, _tasks(3))
        assert outcome.require_complete() == [0, 2, 4]
        assert outcome.report.hangs >= 1
        assert any("hang" in f for f in outcome.report.tasks[0].failures)

    def test_poison_task_quarantined_not_fatal(self):
        tasks = [
            PoolTask("ok0", args=(0,)),
            PoolTask("bad", args=(1,), kwargs={"poison": True}),
            PoolTask("ok2", args=(2,)),
        ]
        pool = FaultTolerantPool(_fast_config(max_retries=1))
        outcome = pool.run(_fail_if_poison, tasks)
        assert outcome.report.quarantined == ["bad"]
        assert outcome.report.task_errors == 2  # initial + one retry
        assert outcome.results == {"ok0": 0, "ok2": 2}
        with pytest.raises(RuntimeError, match="quarantined"):
            outcome.require_complete()

    def test_chaos_parallel_results_equal_serial(self):
        # The acceptance property: a chaos-injected parallel run returns
        # exactly what a plain serial map returns.
        serial = [_double(i) for i in range(6)]
        chaos = PoolChaos(
            (
                WorkerCrash("t0"),
                WorkerHang("t4", hang_s=60.0),
            )
        )
        pool = FaultTolerantPool(_fast_config(task_timeout_s=0.3), chaos=chaos)
        outcome = pool.run(_double, _tasks(6))
        assert outcome.require_complete() == serial
        assert outcome.report.crashes >= 1
        assert outcome.report.hangs >= 1


class TestSerialDegradation:
    def test_worker_startup_failure_falls_back_to_serial(self, monkeypatch):
        pool = FaultTolerantPool(_fast_config())

        def no_workers(result_queue):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(pool, "_spawn_worker", no_workers)
        outcome = pool.run(_double, _tasks(4))
        assert outcome.require_complete() == [0, 2, 4, 6]
        assert outcome.report.degraded_to_serial

    def test_failed_result_queue_degrades_instead_of_raising(self, monkeypatch):
        # Sandboxes without a working SemLock fail at Queue(), before any
        # worker is forked.
        pool = FaultTolerantPool(_fast_config())

        def no_semlock():
            raise OSError("[Errno 38] Function not implemented")

        monkeypatch.setattr(pool._context, "Queue", no_semlock)
        outcome = pool.run(_double, _tasks(3))
        assert outcome.require_complete() == [0, 2, 4]
        assert outcome.report.degraded_to_serial

    def test_losing_every_worker_mid_run_finishes_in_process(self, monkeypatch):
        chaos = PoolChaos((WorkerCrash("t0"),))
        pool = FaultTolerantPool(_fast_config(num_workers=1), chaos=chaos)
        spawn = pool._spawn_worker
        spawned = []

        def spawn_only_once(result_queue):
            if spawned:
                raise OSError("fork: resource temporarily unavailable")
            spawned.append(True)
            return spawn(result_queue)

        monkeypatch.setattr(pool, "_spawn_worker", spawn_only_once)
        outcome = pool.run(_double, _tasks(3))
        assert outcome.require_complete() == [0, 2, 4]
        report = outcome.report
        assert report.degraded_to_serial
        assert report.crashes == 1
        assert report.workers_replaced == 0
        assert report.tasks[0].attempts == 2

    def test_in_process_attempts_see_no_chaos(self, monkeypatch):
        chaos = PoolChaos((WorkerCrash("t1"), WorkerHang("t2", hang_s=60.0)))
        pool = FaultTolerantPool(_fast_config(), chaos=chaos)
        monkeypatch.setattr(
            pool,
            "_spawn_worker",
            lambda q: (_ for _ in ()).throw(OSError("no fork")),
        )
        outcome = pool.run(_double, _tasks(4))
        assert outcome.require_complete() == [0, 2, 4, 6]
        report = outcome.report
        assert report.degraded_to_serial
        assert (report.crashes, report.hangs, report.retries) == (0, 0, 0)

    def test_in_process_retry_waits_out_backoff_then_quarantines(
        self, monkeypatch
    ):
        tasks = [
            PoolTask("ok0", args=(0,)),
            PoolTask("bad", args=(1,), kwargs={"poison": True}),
        ]
        pool = FaultTolerantPool(_fast_config(max_retries=1))
        monkeypatch.setattr(
            pool,
            "_spawn_worker",
            lambda q: (_ for _ in ()).throw(OSError("no fork")),
        )
        outcome = pool.run(_fail_if_poison, tasks)
        report = outcome.report
        assert report.degraded_to_serial
        assert report.quarantined == ["bad"]
        assert (report.task_errors, report.retries) == (2, 1)
        assert report.elapsed_s >= _BACKOFF_BASE_S
        assert outcome.results == {"ok0": 0}


class TestJournalResume:
    def test_resume_skips_completed_tasks(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        markers = tmp_path / "markers"
        markers.mkdir()
        tasks = [
            PoolTask(f"t{i}", args=(i,), kwargs={"marker_dir": str(markers)})
            for i in range(4)
        ]
        pool = FaultTolerantPool(_fast_config())
        first = pool.run(_count_and_double, tasks[:2], journal_path=journal)
        assert first.require_complete() == [0, 2]
        ran_before = len(list(markers.iterdir()))
        assert ran_before == 2

        resumed = FaultTolerantPool(_fast_config()).run(
            _count_and_double, tasks, journal_path=journal
        )
        assert resumed.require_complete() == [0, 2, 4, 6]
        assert resumed.report.resumed == 2
        # Only the two new tasks executed; journaled ones replayed from disk.
        assert len(list(markers.iterdir())) == ran_before + 2
        records = {r.task_id: r for r in resumed.report.tasks}
        assert records["t0"].resumed and records["t1"].resumed
        assert not records["t2"].resumed

    def test_resume_reruns_a_task_id_with_other_arguments(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        pool = FaultTolerantPool(_fast_config())
        pool.run(_double, [PoolTask("t0", args=(1,))], journal_path=journal)
        changed = [PoolTask("t0", args=(5,)), PoolTask("t1", args=(1,))]
        rerun = FaultTolerantPool(_fast_config()).run(
            _double, changed, journal_path=journal
        )
        assert rerun.require_complete() == [10, 2]
        assert rerun.report.resumed == 0
        # The same function and arguments replay from the journal ...
        again = FaultTolerantPool(_fast_config()).run(
            _double, changed, journal_path=journal
        )
        assert again.require_complete() == [10, 2]
        assert again.report.resumed == 2
        # ... another function with the same arguments re-runs.
        other = FaultTolerantPool(_fast_config()).run(
            _fail_if_poison, changed, journal_path=journal
        )
        assert other.require_complete() == [5, 1]
        assert other.report.resumed == 0

    def test_resume_tolerates_torn_final_line(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        pool = FaultTolerantPool(_fast_config())
        pool.run(_double, _tasks(2), journal_path=journal)
        # Simulate a crash mid-write: partial record, no newline.
        with journal.open("ab") as handle:
            handle.write(b'{"task_id": "t9", "status": "ok", "payl')
        resumed = FaultTolerantPool(_fast_config()).run(
            _double, _tasks(3), journal_path=journal
        )
        assert resumed.require_complete() == [0, 2, 4]
        assert resumed.report.resumed == 2
        # The torn line was truncated away, not glued onto new records.
        for line in journal.read_text().splitlines():
            json.loads(line)

    def test_journal_last_record_wins(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with ResultJournal(journal) as writer:
            writer.record_quarantined("t0", attempts=3, failures=["error: x"])
            writer.record_ok("t0", value=42, attempts=1, elapsed_s=0.1)
        reloaded = ResultJournal(journal)
        completed = reloaded.completed_ok()
        assert set(completed) == {"t0"}
        assert ResultJournal.decode(completed["t0"]) == 42
        reloaded.close()

    def test_quarantined_task_retried_on_resume(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        tasks = [PoolTask("bad", args=(1,), kwargs={"poison": True})]
        pool = FaultTolerantPool(_fast_config(max_retries=0))
        first = pool.run(_fail_if_poison, tasks, journal_path=journal)
        assert first.report.quarantined == ["bad"]
        # Resume with the poison removed: the quarantine record does not
        # block the retry, and the new ok record supersedes it.
        good = [PoolTask("bad", args=(1,))]
        second = FaultTolerantPool(_fast_config()).run(
            _fail_if_poison, good, journal_path=journal
        )
        assert second.require_complete() == [1]
        assert second.report.resumed == 0


class TestTelemetryMerge:
    def test_worker_snapshots_merged_into_report(self):
        pool = FaultTolerantPool(_fast_config())
        outcome = pool.run(_count_in_perf, _tasks(4))
        assert outcome.require_complete() == [0, 1, 2, 3]
        counters = outcome.report.telemetry["counters"]
        # Each attempt runs in a fresh registry scope, so the merge counts
        # every task once — not the counters a worker carried over from
        # its earlier tasks or inherited at fork.
        assert counters.get("pool.test.calls", 0) == 4
        assert "pool.test.work" in outcome.report.telemetry["spans"]

    def test_merge_perf_snapshots_sums_and_remeans(self):
        a = {
            "counters": {"calls": 2},
            "spans": {"s": {"count": 2, "total_ms": 10.0, "max_ms": 8.0}},
            "histograms": {"h": {"count": 1, "sum": 5.0, "min": 5.0, "max": 5.0}},
        }
        b = {
            "counters": {"calls": 3, "other": 1},
            "spans": {"s": {"count": 1, "total_ms": 2.0, "max_ms": 2.0}},
            "histograms": {"h": {"count": 3, "sum": 9.0, "min": 1.0, "max": 6.0}},
        }
        merged = merge_perf_snapshots([a, b])
        assert merged["counters"] == {"calls": 5, "other": 1}
        span = merged["spans"]["s"]
        assert span["count"] == 3
        assert span["max_ms"] == 8.0
        assert span["mean_ms"] == pytest.approx(4.0)
        hist = merged["histograms"]["h"]
        assert hist["count"] == 4
        assert hist["mean"] == pytest.approx(3.5)
        assert hist["min"] == 1.0 and hist["max"] == 6.0

    def test_merge_of_nothing_is_empty(self):
        assert merge_perf_snapshots([]) == {
            "counters": {},
            "spans": {},
            "histograms": {},
            "windows": {},
        }


class TestPoolChaosContract:
    def test_duplicate_events_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PoolChaos((WorkerCrash("t0"), WorkerHang("t0", hang_s=1.0)))

    def test_event_matching_is_per_attempt(self):
        chaos = PoolChaos((WorkerCrash("t0", attempt=1),))
        assert chaos.event_for("t0", 0) is None
        assert isinstance(chaos.event_for("t0", 1), WorkerCrash)
        assert chaos.event_for("t1", 1) is None

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError, match="attempt"):
            PoolFaultEvent("t0", attempt=-1)

    def test_report_serializes_to_json(self, tmp_path):
        pool = FaultTolerantPool(_fast_config())
        outcome = pool.run(_double, _tasks(2))
        path = tmp_path / "report.json"
        outcome.report.dump(path)
        data = json.loads(path.read_text())
        assert data["num_workers"] == 2
        assert len(data["tasks"]) == 2
        assert {t["status"] for t in data["tasks"]} == {"ok"}
