"""Unit tests for HistogramStat and the registry's observe()/scoped()."""

import pytest

from repro.perf import (
    DEFAULT_BUCKET_BOUNDS,
    HistogramStat,
    PerfRegistry,
    get_registry,
)


class TestBounds:
    def test_default_bounds_are_log_spaced(self):
        bounds = DEFAULT_BUCKET_BOUNDS
        assert bounds[0] == pytest.approx(0.01)
        for lo, hi in zip(bounds, bounds[1:]):
            assert hi == pytest.approx(lo * 2.0)

    def test_default_bounds_cover_minutes(self):
        # 0.01 ms * 2^25 ≈ 335 s — comfortably past any simulated latency.
        assert DEFAULT_BUCKET_BOUNDS[-1] > 60_000.0


class TestRecord:
    def test_empty_histogram(self):
        hist = HistogramStat()
        assert hist.count == 0
        assert hist.sum == 0.0
        assert hist.p50 == 0.0
        assert hist.p99 == 0.0

    def test_count_sum_min_max(self):
        hist = HistogramStat()
        for v in (1.0, 5.0, 3.0):
            hist.record(v)
        assert hist.count == 3
        assert hist.sum == pytest.approx(9.0)
        assert hist.min == pytest.approx(1.0)
        assert hist.max == pytest.approx(5.0)
        assert hist.mean == pytest.approx(3.0)

    def test_overflow_values_still_counted(self):
        hist = HistogramStat()
        hist.record(1e12)  # beyond the last bound -> overflow bucket
        assert hist.count == 1
        assert hist.max == pytest.approx(1e12)

    def test_single_value_quantiles_collapse(self):
        hist = HistogramStat()
        hist.record(42.0)
        assert hist.p50 == pytest.approx(42.0)
        assert hist.p99 == pytest.approx(42.0)


class TestQuantiles:
    def test_quantiles_are_monotone(self):
        hist = HistogramStat()
        for i in range(1, 1001):
            hist.record(i * 0.5)  # 0.5 .. 500 ms
        assert hist.p50 <= hist.p90 <= hist.p95 <= hist.p99

    def test_quantiles_bounded_by_min_max(self):
        hist = HistogramStat()
        for v in (10.0, 20.0, 30.0, 40.0):
            hist.record(v)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert hist.min <= hist.quantile(q) <= hist.max

    def test_p50_roughly_median(self):
        hist = HistogramStat()
        for i in range(1000):
            hist.record(100.0)  # all in one bucket
        # Log-spaced buckets give at most one-bucket error: the estimate
        # must land inside the bucket containing 100 ms.
        assert 64.0 <= hist.p50 <= 164.0

    def test_to_dict_round_trips_fields(self):
        hist = HistogramStat()
        hist.record(2.0)
        d = hist.to_dict()
        assert d["count"] == 1
        assert d["sum"] == pytest.approx(2.0)
        assert set(d) >= {"count", "sum", "mean", "min", "max", "p50", "p90", "p99"}


class TestRegistryObserve:
    def test_observe_accumulates(self):
        reg = PerfRegistry()
        reg.observe("lat", 5.0)
        reg.observe("lat", 15.0)
        hist = reg.histogram("lat")
        assert hist.count == 2
        assert hist.sum == pytest.approx(20.0)

    def test_disabled_registry_observe_is_inert(self):
        reg = PerfRegistry(enabled=False)
        reg.observe("lat", 5.0)
        assert reg.histogram("lat").count == 0

    def test_snapshot_includes_histograms(self):
        reg = PerfRegistry()
        reg.observe("lat", 1.0)
        snap = reg.snapshot()
        assert snap["histograms"]["lat"]["count"] == 1


class TestScoped:
    def test_scoped_resets_on_entry(self):
        reg = PerfRegistry()
        reg.count("c")
        reg.observe("h", 1.0)
        with reg.scoped() as scoped_reg:
            assert scoped_reg is reg
            assert reg.counter("c") == 0
            assert reg.histogram("h").count == 0
            reg.count("c")
        # Counts from inside the scope survive for post-run reporting.
        assert reg.counter("c") == 1

    def test_default_registry_has_scoped(self):
        assert hasattr(get_registry(), "scoped")
