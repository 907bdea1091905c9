"""Parallel == serial observability.

The acceptance bar for cross-worker aggregation: a 2-worker pool run that
streams per-task traces and ships per-task registry snapshots must merge
to exactly the serial run's report — request counts exact, latency
histograms bit-identical, windowed slabs bucket-identical. Wall-clock
span *durations* are the one legitimate difference, so phase comparisons
stick to counts.
"""

import pytest

from repro.accuracy import FixedAccuracy
from repro.latency import CLOUD_SERVER, XIAOMI_MI_6X
from repro.latency.transfer import WIFI_TRANSFER
from repro.mdp import PAPER_REWARD
from repro.network.channel import Channel
from repro.network.traces import constant_trace
from repro.nn.zoo import vgg11
from repro.obs.report import summarize_paths
from repro.obs.trace import recording
from repro.perf import get_registry
from repro.runtime.engine import FixedPlan, RuntimeEnvironment
from repro.runtime.emulator import run_emulation
from repro.runtime.pool import (
    FaultTolerantPool,
    PoolConfig,
    PoolTask,
    merge_perf_snapshots,
)
from repro.runtime.workers import worker_safe

NUM_TASKS = 4
NUM_REQUESTS = 6


def _make_env(index):
    # Vary bandwidth per task so each task's latencies are distinct —
    # a merge bug that drops or double-counts a task cannot hide.
    trace = constant_trace(8.0 + 4.0 * index, duration_s=60.0)
    return RuntimeEnvironment(
        edge=XIAOMI_MI_6X,
        cloud=CLOUD_SERVER,
        trace=trace,
        channel=Channel(trace, WIFI_TRANSFER),
        accuracy=FixedAccuracy(0.9201),
        reward=PAPER_REWARD,
    )


def _emulate(index):
    result = run_emulation(
        FixedPlan(None, vgg11()),
        _make_env(index),
        num_requests=NUM_REQUESTS,
        seed=index,
    )
    return float(result.mean_latency_ms)


# Module level so it pickles into workers. scoped() resets the worker
# registry at task entry, so the snapshot the pool ships after each task
# holds exactly that task's metrics.
@worker_safe
def _emulate_task(index):
    with get_registry().scoped():
        return _emulate(index)


def _rounded(obj):
    """Round floats so merge-order float association can't flake tests."""
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, dict):
        return {key: _rounded(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(value) for value in obj]
    return obj


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    parallel_dir = tmp_path_factory.mktemp("parallel_traces")
    serial_dir = tmp_path_factory.mktemp("serial_traces")

    pool = FaultTolerantPool(
        PoolConfig(
            num_workers=2,
            task_timeout_s=60.0,
            trace_dir=str(parallel_dir),
        )
    )
    tasks = [PoolTask(f"t{i}", args=(i,)) for i in range(NUM_TASKS)]
    outcome = pool.run(_emulate_task, tasks)

    snapshots = []
    for index in range(NUM_TASKS):
        # Same trace filenames as the pool writes, so both directories
        # expand to the same sorted merge order.
        with recording(serial_dir / f"t{index}.jsonl", stream=True):
            with get_registry().scoped():
                _emulate(index)
            snapshots.append(get_registry().snapshot())
    serial_telemetry = merge_perf_snapshots(snapshots)

    return {
        "outcome": outcome,
        "parallel": summarize_paths([parallel_dir]),
        "serial": summarize_paths([serial_dir]),
        "serial_telemetry": serial_telemetry,
    }


class TestTraceAggregation:
    def test_pool_completes_with_expected_results(self, runs):
        values = runs["outcome"].require_complete()
        assert len(values) == NUM_TASKS
        assert all(value > 0.0 for value in values)

    def test_request_counts_exact(self, runs):
        parallel, serial = runs["parallel"], runs["serial"]
        assert parallel.fork_counts == serial.fork_counts
        assert parallel.requests() == serial.requests() == (
            NUM_TASKS * NUM_REQUESTS
        )

    def test_phase_counts_exact_durations_exempt(self, runs):
        parallel, serial = runs["parallel"], runs["serial"]
        assert set(parallel.phases) == set(serial.phases)
        for name, agg in parallel.phases.items():
            assert agg.count == serial.phases[name].count, name

    def test_latency_histogram_bit_identical(self, runs):
        assert (
            runs["parallel"].request_latency.state_dict()
            == runs["serial"].request_latency.state_dict()
        )

    def test_windowed_slabs_bucket_identical(self, runs):
        parallel = runs["parallel"].windowed_latency
        serial = runs["serial"].windowed_latency
        assert parallel.state() == serial.state()
        assert sorted(parallel.slabs) == sorted(serial.slabs)
        current = parallel.window()
        assert current.state_dict() == serial.window().state_dict()


class TestRegistryAggregation:
    def test_counters_exact(self, runs):
        telemetry = runs["outcome"].report.telemetry
        assert telemetry["counters"] == runs["serial_telemetry"]["counters"]
        assert telemetry["counters"]["emulator.requests"] == (
            NUM_TASKS * NUM_REQUESTS
        )

    def test_histograms_match(self, runs):
        telemetry = runs["outcome"].report.telemetry
        assert _rounded(telemetry["histograms"]) == _rounded(
            runs["serial_telemetry"]["histograms"]
        )

    def test_windows_fold_bucket_by_bucket(self, runs):
        parallel = runs["outcome"].report.telemetry["windows"]
        serial = runs["serial_telemetry"]["windows"]
        assert set(parallel) == set(serial)
        latency = parallel["emulator.request.latency_ms"]
        assert latency["kind"] == "histogram"
        assert _rounded(parallel) == _rounded(serial)

    def test_span_counts_match(self, runs):
        parallel = runs["outcome"].report.telemetry["spans"]
        serial = runs["serial_telemetry"]["spans"]
        assert set(parallel) == set(serial)
        for name, stat in parallel.items():
            assert stat["count"] == serial[name]["count"], name
