"""Pool throughput bench: 2 workers must beat serial by >=1.5x.

The gate uses *blocking* tasks (simulated I/O via ``time.sleep``) so it
holds on single-core CI runners too — two workers overlap their blocked
time even when they share one CPU, which is exactly the regime a
network-bound sweep (cloud probes, transfer emulation against a remote
trace store) lives in. Serial and parallel wall-times plus the measured
speedup land in ``extra_info`` so ``make bench-pool`` persists them in
``BENCH_pool.json``.
"""

import time

import pytest

from repro.runtime.pool import FaultTolerantPool, PoolConfig, PoolTask
from repro.runtime.workers import worker_safe

#: Per-task blocking time. Large enough to dwarf worker dispatch
#: overhead (~ms), small enough to keep the bench under ~10 s.
TASK_SLEEP_S = 0.15
NUM_TASKS = 12


@worker_safe
def _blocking_task(index, sleep_s=TASK_SLEEP_S):
    time.sleep(sleep_s)
    return index * index


def _tasks():
    return [PoolTask(f"cell-{i}", args=(i,)) for i in range(NUM_TASKS)]


def test_bench_pool_parallel_speedup(benchmark):
    expected = [i * i for i in range(NUM_TASKS)]

    start = time.perf_counter()
    serial = [_blocking_task(i) for i in range(NUM_TASKS)]
    serial_s = time.perf_counter() - start
    assert serial == expected

    pool_config = PoolConfig(num_workers=2, task_timeout_s=30.0)

    def parallel_run():
        outcome = FaultTolerantPool(pool_config).run(_blocking_task, _tasks())
        return outcome.require_complete()

    result = benchmark.pedantic(parallel_run, rounds=3, iterations=1)
    parallel_s = benchmark.stats.stats.min
    assert result == expected

    speedup = serial_s / parallel_s
    benchmark.extra_info["serial_s"] = round(serial_s, 4)
    benchmark.extra_info["parallel_s"] = round(parallel_s, 4)
    benchmark.extra_info["speedup_parallel_vs_serial"] = round(speedup, 2)
    benchmark.extra_info["num_workers"] = pool_config.num_workers
    benchmark.extra_info["num_tasks"] = NUM_TASKS

    assert speedup >= 1.5, (
        f"2-worker pool only {speedup:.2f}x faster than serial "
        f"(serial {serial_s:.3f}s, parallel {parallel_s:.3f}s)"
    )
