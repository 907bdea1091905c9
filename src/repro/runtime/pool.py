"""Fault-tolerant multiprocessing fan-out for ``@worker_safe`` task units.

ROADMAP item 3: the paper's search is embarrassingly parallel across
scenes, methods and candidate fine-tunes, and long multi-device sweeps
make worker death the norm, not the exception. This pool is therefore
robust *by construction* rather than parallel-then-hardened:

- **hang detection** — every dispatched task carries a deadline; a
  worker that blows it is killed and replaced, never waited on;
- **crash tolerance** — a worker that dies mid-task (OOM kill, segfault,
  injected :class:`~repro.runtime.faults.WorkerCrash`) is detected via
  its exit code and replaced, and its task is retried;
- **deterministic retry** — retries back off exponentially and rerun the
  task with the same arguments, so a task seeded from its arguments
  produces bit-identical results no matter which worker reruns it;
- **poison-task quarantine** — a task that fails ``max_retries + 1``
  attempts is recorded and skipped, not allowed to wedge the sweep;
- **serial degradation** — if no worker is alive and none can be started
  (fork limits, sandboxed container), the same supervisor loop runs the
  remaining attempts in-process and says so in its report;
- **crash-safe journal** — completed results stream through a
  flush-per-record :class:`~repro.obs.sink.JsonlSink`; a killed sweep
  restarted with the same journal replays completed cells from disk and
  dispatches only the remainder; a record replays only for the same
  function and arguments (:func:`task_key`), so one journal shared by
  different sweeps re-runs what they disagree on;
- **telemetry merge** — every attempt runs in a fresh
  :class:`~repro.perf.PerfRegistry` scope and ships its snapshot back
  with its result; the parent folds them into one report.

The unit of work is a :class:`PoolTask` wrapping a picklable function
marked :func:`~repro.runtime.workers.worker_safe` — flowcheck's
``SHARED-MUTABLE``/``WORKER-RNG``/``SINK-FLUSH`` rules statically verify
everything reachable from those roots, which is what makes this fan-out
safe to run in forked workers.
"""

from __future__ import annotations

import base64
import hashlib
import json
import multiprocessing
import os
import pickle
import queue
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..contracts import require_non_negative, require_positive
from ..obs.sink import JsonlSink, recover_jsonl_records
from ..obs.window import merge_window_sections
from .faults import PoolChaos, WorkerCrash, WorkerHang
from .workers import is_worker_safe

#: Workers are forked: cheap on POSIX, and the tasks are ``@worker_safe``.
_START_METHOD = "fork"
#: Retry backoff: the attempt after a task's n-th failure waits
#: ``_BACKOFF_BASE_S * _BACKOFF_FACTOR ** (n - 1)`` seconds.
_BACKOFF_BASE_S = 0.05
_BACKOFF_FACTOR = 2.0
#: How long one supervisor turn blocks on the result queue.
_POLL_INTERVAL_S = 0.02
#: Task states that end a task's lifecycle.
_RESOLVED = ("ok", "quarantined")


@dataclass(frozen=True)
class PoolTask:
    """One unit of work: ``fn(*args, **kwargs)`` in some worker.

    ``task_id`` keys the journal, the chaos schedule and the report, so
    it must be unique within a run and stable across resumes.
    """

    task_id: str
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)


def task_key(fn: Callable[..., Any], task: PoolTask) -> str:
    """What produced a task's result: ``fn`` and the task's arguments.

    The journal stores it beside each result; a journaled result replays
    only for a task with the same key, so a task id reused with another
    function or other arguments re-runs.
    """
    produced_by = (
        fn.__module__, fn.__qualname__, task.args, sorted(task.kwargs.items())
    )
    return hashlib.sha256(pickle.dumps(produced_by, protocol=4)).hexdigest()


@dataclass(frozen=True)
class PoolConfig:
    """Robustness knobs of the :class:`FaultTolerantPool`."""

    num_workers: int = 2
    #: Hang detection: a task attempt exceeding this wall budget gets its
    #: worker killed and the attempt counted as a failure.
    task_timeout_s: float = 600.0
    #: Retries per task beyond the first attempt; exhausting them
    #: quarantines the task (recorded, not fatal).
    max_retries: int = 2
    #: When set, every task attempt streams its own observability trace
    #: to ``<trace_dir>/<task_id>.jsonl`` (flush-per-record, so a crashed
    #: attempt still leaves its completed records). A retry overwrites
    #: the previous attempt's file: the last attempt wins, matching the
    #: journal's last-record-wins semantics.
    trace_dir: Optional[str] = None

    def __post_init__(self) -> None:
        require_positive(self.num_workers, "num_workers")
        require_positive(self.task_timeout_s, "task_timeout_s")
        require_non_negative(self.max_retries, "max_retries")


@dataclass
class TaskRecord:
    """Parent-side lifecycle of one task, exported in the report."""

    task_id: str
    index: int
    status: str = "pending"  # pending | ok | quarantined
    attempts: int = 0
    #: one entry per failed attempt: "error: ...", "crash(...)", "hang".
    failures: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: True when the result came from the resume journal, not a worker.
    resumed: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "task_id": self.task_id,
            "index": self.index,
            "status": self.status,
            "attempts": self.attempts,
            "failures": list(self.failures),
            "elapsed_s": round(self.elapsed_s, 6),
            "resumed": self.resumed,
        }


@dataclass
class PoolReport:
    """Aggregate robustness + telemetry report of one pool run."""

    num_workers: int
    tasks: List[TaskRecord] = field(default_factory=list)
    retries: int = 0
    crashes: int = 0
    hangs: int = 0
    task_errors: int = 0
    workers_replaced: int = 0
    quarantined: List[str] = field(default_factory=list)
    resumed: int = 0
    degraded_to_serial: bool = False
    elapsed_s: float = 0.0
    #: Merged worker-side PerfRegistry snapshots (counters/spans/histograms).
    telemetry: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "num_workers": self.num_workers,
            "retries": self.retries,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "task_errors": self.task_errors,
            "workers_replaced": self.workers_replaced,
            "quarantined": list(self.quarantined),
            "resumed": self.resumed,
            "degraded_to_serial": self.degraded_to_serial,
            "elapsed_s": round(self.elapsed_s, 6),
            "tasks": [record.to_dict() for record in self.tasks],
            "telemetry": self.telemetry,
        }

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))


@dataclass
class PoolOutcome:
    """Results (in task order) plus the robustness report."""

    results: Dict[str, Any]
    report: PoolReport
    task_order: List[str] = field(default_factory=list)

    def require_complete(self) -> List[Any]:
        """Results in task order, raising if any task was quarantined."""
        missing = [t for t in self.task_order if t not in self.results]
        if missing:
            raise RuntimeError(
                f"pool quarantined {len(missing)} task(s): {missing}"
            )
        return [self.results[task_id] for task_id in self.task_order]


# ---------------------------------------------------------------------------
# Telemetry merge
# ---------------------------------------------------------------------------
def merge_perf_snapshots(
    snapshots: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Fold per-task worker ``PerfRegistry.snapshot()`` dicts into one.

    Counters sum; spans merge exactly (count/total/max, mean recomputed);
    histogram summaries merge their exact moments (count/sum/min/max,
    mean recomputed) — per-snapshot percentiles cannot be merged and are
    dropped rather than faked. Windowed metrics *do* merge exactly: their
    slabs are bucket-aligned on simulated time, so the fold is
    bucket-by-bucket (:func:`~repro.obs.window.merge_window_sections`)
    and a parallel sweep's windowed percentiles equal the serial run's.
    """
    counters: Dict[str, int] = {}
    spans: Dict[str, Dict[str, float]] = {}
    histograms: Dict[str, Dict[str, float]] = {}
    windows = merge_window_sections(
        [snapshot.get("windows", {}) for snapshot in snapshots]
    )
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, stat in snapshot.get("spans", {}).items():
            merged = spans.setdefault(
                name, {"count": 0, "total_ms": 0.0, "max_ms": 0.0}
            )
            merged["count"] += stat["count"]
            merged["total_ms"] += stat["total_ms"]
            merged["max_ms"] = max(merged["max_ms"], stat["max_ms"])
        for name, stat in snapshot.get("histograms", {}).items():
            merged = histograms.setdefault(
                name,
                {"count": 0, "sum": 0.0, "min": float("inf"), "max": 0.0},
            )
            merged["count"] += stat["count"]
            merged["sum"] += stat["sum"]
            merged["min"] = min(merged["min"], stat["min"])
            merged["max"] = max(merged["max"], stat["max"])
    for stat in spans.values():
        stat["mean_ms"] = stat["total_ms"] / stat["count"] if stat["count"] else 0.0
    for stat in histograms.values():
        stat["mean"] = stat["sum"] / stat["count"] if stat["count"] else 0.0
        if stat["count"] == 0:
            stat["min"] = 0.0
    return {
        "counters": counters,
        "spans": spans,
        "histograms": histograms,
        "windows": windows,
    }


# ---------------------------------------------------------------------------
# Resume journal
# ---------------------------------------------------------------------------
class ResultJournal:
    """Crash-safe record of completed tasks, replayable on resume.

    One JSONL record per finished task (flush-per-record via
    :class:`JsonlSink`), payloads pickled and base64-wrapped so any
    picklable worker result round-trips. Loading tolerates a torn final
    line — the write the journal died in the middle of — truncating it
    away before reopening in append mode. The journal is a log: the last
    record for a task wins, so a quarantined task retried on resume
    simply appends its new outcome.
    """

    def __init__(self, path) -> None:
        self.path = path
        previous = recover_jsonl_records(path, truncate=True)
        self._completed: Dict[str, Dict[str, Any]] = {}
        for record in previous:
            self._completed[record["task_id"]] = record
        self._sink = JsonlSink(path, append=True)

    @property
    def closed(self) -> bool:
        return self._sink.closed

    def completed_ok(self) -> Dict[str, Dict[str, Any]]:
        """task_id -> record for every task whose last outcome was ok."""
        return {
            task_id: record
            for task_id, record in self._completed.items()
            if record.get("status") == "ok"
        }

    @staticmethod
    def decode(record: Mapping[str, Any]) -> Any:
        payload = base64.b64decode(record["payload"])
        return pickle.loads(payload)

    def record_ok(
        self,
        task_id: str,
        value: Any,
        attempts: int,
        elapsed_s: float,
        key: Optional[str] = None,
    ) -> None:
        """Journal a result; ``key`` is its :func:`task_key`."""
        require_non_negative(elapsed_s, "elapsed_s")
        record = {
            "task_id": task_id,
            "key": key,
            "status": "ok",
            "attempts": attempts,
            "elapsed_s": round(elapsed_s, 6),
            "encoding": "pickle+base64",
            "payload": base64.b64encode(pickle.dumps(value)).decode("ascii"),
        }
        self._sink.write(record)
        self._completed[task_id] = record

    def record_quarantined(
        self, task_id: str, attempts: int, failures: Sequence[str]
    ) -> None:
        record = {
            "task_id": task_id,
            "status": "quarantined",
            "attempts": attempts,
            "failures": list(failures),
        }
        self._sink.write(record)
        self._completed[task_id] = record

    def close(self) -> None:
        self._sink.close()

    def __enter__(self) -> "ResultJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Attempts
# ---------------------------------------------------------------------------
def _task_trace_path(trace_dir: str, task_id: str) -> Path:
    """Per-task trace file; task ids are sanitized into safe filenames."""
    safe = "".join(
        ch if ch.isalnum() or ch in "._-" else "_" for ch in task_id
    )
    return Path(trace_dir) / f"{safe or 'task'}.jsonl"


def _run_attempt(
    worker_id: int,
    task_id: str,
    attempt: int,
    fn: Callable[..., Any],
    args: Tuple[Any, ...],
    kwargs: Mapping[str, Any],
    trace_dir: Optional[str],
) -> Tuple[Any, ...]:
    """Run one attempt and return the message the supervisor handles.

    ``("ok", worker_id, task_id, attempt, value, snapshot, elapsed_s)`` or
    ``("err", worker_id, task_id, attempt, error, elapsed_s)``. The
    attempt runs in a fresh registry scope, so its snapshot holds this
    task's metrics only — not the counters a forked worker inherited or
    accumulated on earlier tasks. With ``trace_dir`` set, the attempt
    streams its own trace (see :attr:`PoolConfig.trace_dir`).
    """
    from ..perf import get_registry

    start = time.perf_counter()
    try:
        with get_registry().scoped() as registry:
            if trace_dir is None:
                value = fn(*args, **kwargs)
            else:
                from ..obs.trace import recording

                path = _task_trace_path(trace_dir, task_id)
                path.parent.mkdir(parents=True, exist_ok=True)
                with recording(path, stream=True):
                    value = fn(*args, **kwargs)
            snapshot = registry.snapshot()
    except Exception as exc:  # noqa: BLE001 - retried/quarantined
        error = f"{type(exc).__name__}: {exc}"
        return ("err", worker_id, task_id, attempt, error, time.perf_counter() - start)
    elapsed_s = time.perf_counter() - start
    return ("ok", worker_id, task_id, attempt, value, snapshot, elapsed_s)


def _worker_main(
    worker_id: int,
    inbox: Any,
    results: Any,
    chaos: Optional[PoolChaos],
    trace_dir: Optional[str] = None,
) -> None:
    """Worker loop: take (task, attempt) messages until the None sentinel.

    Chaos events fire *inside* the worker so the parent's recovery path
    is exercised for real: a :class:`WorkerCrash` hard-exits the process
    and a :class:`WorkerHang` stalls until the parent's timeout kill.
    """
    while True:
        message = inbox.get()
        if message is None:
            return
        task_id, attempt, fn, args, kwargs = message
        event = chaos.event_for(task_id, attempt) if chaos else None
        if isinstance(event, WorkerCrash):
            os._exit(event.exit_code)
        if isinstance(event, WorkerHang):
            time.sleep(event.hang_s)
        results.put(
            _run_attempt(worker_id, task_id, attempt, fn, args, kwargs, trace_dir)
        )


@dataclass
class _WorkerHandle:
    worker_id: int
    process: Any
    inbox: Any
    current: Optional[str] = None
    deadline: float = 0.0


#: Worker id carried by the messages of attempts run in the parent.
_IN_PROCESS = -1


class FaultTolerantPool:
    """Crash/hang-tolerant ``map`` over :class:`PoolTask` units.

    Usage::

        pool = FaultTolerantPool(PoolConfig(num_workers=4))
        outcome = pool.run(run_scenario, tasks, journal_path="sweep.jsonl")
        rows = outcome.require_complete()

    ``run`` validates that ``fn`` is marked ``@worker_safe`` (the static
    contract flowcheck verifies), dispatches one task per idle worker,
    and drives the recovery loop described in the module docstring. The
    state of the run in progress (records, results, report, journal,
    retry queue, backoff gates, telemetry) lives on the pool, so a pool
    runs one ``run`` at a time.
    """

    def __init__(
        self,
        config: Optional[PoolConfig] = None,
        chaos: Optional[PoolChaos] = None,
    ) -> None:
        self.config = config or PoolConfig()
        self.chaos = chaos
        self._context = multiprocessing.get_context(_START_METHOD)
        self._next_worker_id = 0

    # -- public API -------------------------------------------------------
    def run(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[PoolTask],
        journal_path: Optional[Any] = None,
    ) -> PoolOutcome:
        """Execute every task, surviving worker crashes and hangs."""
        if not is_worker_safe(fn):
            raise ValueError(
                f"{getattr(fn, '__name__', fn)!r} is not marked "
                "@worker_safe; decorate it (and let flowcheck verify its "
                "call graph)"
            )
        ids = [task.task_id for task in tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("task_ids must be unique within a run")

        self._report = report = PoolReport(num_workers=self.config.num_workers)
        self._records = records = {
            task.task_id: TaskRecord(task_id=task.task_id, index=index)
            for index, task in enumerate(tasks)
        }
        report.tasks = list(records.values())
        self._results: Dict[str, Any] = {}
        self._telemetry: List[Mapping[str, Any]] = []
        started = time.perf_counter()

        self._journal = ResultJournal(journal_path) if journal_path else None
        self._keys = {t.task_id: task_key(fn, t) for t in tasks} if journal_path else {}
        try:
            if self._journal is not None:
                for task_id, record in self._journal.completed_ok().items():
                    if task_id in records and record.get("key") == self._keys[task_id]:
                        self._results[task_id] = ResultJournal.decode(record)
                        records[task_id].status = "ok"
                        records[task_id].resumed = True
                        records[task_id].attempts = record.get("attempts", 0)
                        report.resumed += 1

            # The retry queue; eligible_at gates backoff, and tasks
            # enter ready immediately.
            self._pending = [t for t in ids if records[t].status != "ok"]
            self._eligible_at = dict.fromkeys(self._pending, 0.0)
            if self._pending:
                self._execute(fn, {task.task_id: task for task in tasks})
                report.telemetry = merge_perf_snapshots(self._telemetry)
        finally:
            if self._journal is not None:
                self._journal.close()

        report.quarantined = [
            record.task_id
            for record in report.tasks
            if record.status == "quarantined"
        ]
        report.elapsed_s = time.perf_counter() - started
        return PoolOutcome(results=self._results, report=report, task_order=ids)

    # -- the supervisor loop ---------------------------------------------
    def _execute(self, fn, by_id: Mapping[str, PoolTask]) -> None:
        workers: List[_WorkerHandle] = []
        result_queue = None
        try:
            result_queue = self._context.Queue()
            for _ in range(min(self.config.num_workers, len(self._pending))):
                workers.append(self._spawn_worker(result_queue))
        except OSError:
            pass  # fork limits or no SemLock: start with what did spawn

        try:
            while self._unresolved():
                now = time.monotonic()
                if not workers:
                    # No worker is alive and none could be started: run
                    # the next ready attempt here. Chaos does not fire —
                    # there is no worker process to crash or hang.
                    self._report.degraded_to_serial = True
                    ready = self._next_ready(now)
                    if ready is None:
                        time.sleep(_POLL_INTERVAL_S)  # waiting out backoff
                        continue
                    task = by_id[ready]
                    self._handle_message(
                        _run_attempt(
                            _IN_PROCESS,
                            ready,
                            self._start_attempt(ready),
                            fn,
                            task.args,
                            dict(task.kwargs),
                            self.config.trace_dir,
                        ),
                        workers,
                    )
                    continue

                # 1. dispatch ready tasks onto idle live workers
                for worker in workers:
                    if worker.current is not None:
                        continue
                    ready = self._next_ready(now)
                    if ready is None:
                        break
                    task = by_id[ready]
                    worker.current = ready
                    worker.deadline = now + self.config.task_timeout_s
                    attempt = self._start_attempt(ready)
                    worker.inbox.put(
                        (ready, attempt, fn, task.args, dict(task.kwargs))
                    )

                # 2. drain results
                try:
                    message = result_queue.get(timeout=_POLL_INTERVAL_S)
                except queue.Empty:
                    message = None
                while message is not None:
                    self._handle_message(message, workers)
                    try:
                        message = result_queue.get_nowait()
                    except queue.Empty:
                        message = None

                # 3. reap dead / hung workers
                now = time.monotonic()
                for worker in list(workers):
                    if not worker.process.is_alive():
                        self._report.crashes += 1
                        reason = f"crash(exit={worker.process.exitcode})"
                    elif worker.current is not None and now > worker.deadline:
                        self._report.hangs += 1
                        reason = "hang"
                    else:
                        continue
                    self._fail_current(worker, reason)
                    self._kill_worker(worker)
                    workers.remove(worker)
                    if self._unresolved():
                        try:
                            workers.append(self._spawn_worker(result_queue))
                            self._report.workers_replaced += 1
                        except OSError:
                            pass  # keep going with the survivors
        finally:
            for worker in workers:
                self._stop_worker(worker)
            if result_queue is not None:
                result_queue.close()
                result_queue.cancel_join_thread()

    def _unresolved(self) -> bool:
        return any(r.status not in _RESOLVED for r in self._records.values())

    def _next_ready(self, now: float) -> Optional[str]:
        """Pop the first queued task whose backoff has elapsed."""
        for task_id in self._pending:
            if self._eligible_at[task_id] <= now:
                self._pending.remove(task_id)
                return task_id
        return None

    def _start_attempt(self, task_id: str) -> int:
        """Count a new attempt of ``task_id``; return its 0-based number."""
        record = self._records[task_id]
        record.attempts += 1
        return record.attempts - 1

    def _handle_message(self, message, workers: List[_WorkerHandle]) -> None:
        kind, worker_id, task_id = message[0], message[1], message[2]
        record = self._records.get(task_id)
        worker = next((w for w in workers if w.worker_id == worker_id), None)
        if worker is not None and worker.current == task_id:
            worker.current = None
        if record is None or record.status in _RESOLVED:
            return  # stale: task already resolved by another attempt
        if kind == "ok":
            _, _, _, _, value, snapshot, elapsed_s = message
            record.status = "ok"
            record.elapsed_s += elapsed_s
            self._results[task_id] = value
            self._telemetry.append(snapshot)
            # A result can land from a worker we already gave up on
            # (kill raced completion); the task may sit re-queued.
            if task_id in self._pending:
                self._pending.remove(task_id)
            if self._journal is not None:
                self._journal.record_ok(
                    task_id, value, record.attempts, elapsed_s,
                    key=self._keys[task_id],
                )
        else:
            _, _, _, _, error, elapsed_s = message
            record.elapsed_s += elapsed_s
            self._report.task_errors += 1
            self._register_failure(record, f"error: {error}")

    def _fail_current(self, worker: _WorkerHandle, reason: str) -> None:
        task_id, worker.current = worker.current, None
        if task_id is None:
            return
        record = self._records[task_id]
        if record.status not in _RESOLVED:
            self._register_failure(record, reason)

    def _register_failure(self, record: TaskRecord, reason: str) -> None:
        record.failures.append(reason)
        if record.attempts > self.config.max_retries:
            record.status = "quarantined"
            if self._journal is not None:
                self._journal.record_quarantined(
                    record.task_id, record.attempts, record.failures
                )
            return
        self._report.retries += 1
        backoff_s = _BACKOFF_BASE_S * _BACKOFF_FACTOR ** (len(record.failures) - 1)
        self._eligible_at[record.task_id] = time.monotonic() + backoff_s
        self._pending.append(record.task_id)

    # -- worker lifecycle --------------------------------------------------
    def _spawn_worker(self, result_queue) -> _WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        inbox = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(
                worker_id,
                inbox,
                result_queue,
                self.chaos,
                self.config.trace_dir,
            ),
            daemon=True,
            name=f"pool-worker-{worker_id}",
        )
        process.start()
        return _WorkerHandle(worker_id=worker_id, process=process, inbox=inbox)

    def _stop_worker(self, worker: _WorkerHandle) -> None:
        """Graceful shutdown: sentinel, short join, then force-kill."""
        try:
            worker.inbox.put(None)
        except (OSError, ValueError):
            pass
        worker.process.join(timeout=1.0)
        self._kill_worker(worker)

    def _kill_worker(self, worker: _WorkerHandle) -> None:
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=1.0)
        if worker.process.is_alive():  # terminate ignored: escalate
            worker.process.kill()
            worker.process.join(timeout=1.0)
        worker.inbox.close()
        worker.inbox.cancel_join_thread()


__all__ = [
    "FaultTolerantPool",
    "PoolConfig",
    "PoolOutcome",
    "PoolReport",
    "PoolTask",
    "ResultJournal",
    "TaskRecord",
    "merge_perf_snapshots",
]
