"""Windowed metrics: rings of mergeable slabs over simulated time."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.window import (
    WindowedCounter,
    WindowedHistogram,
    merge_window_sections,
    merge_window_states,
)
from repro.perf import HistogramStat, get_registry


class TestWindowedHistogram:
    def test_record_lands_in_covering_bucket(self):
        ring = WindowedHistogram(bucket_ms=1000.0)
        ring.record(10.0, t_ms=0.0)
        ring.record(20.0, t_ms=999.9)
        ring.record(30.0, t_ms=1000.0)
        assert sorted(ring.slabs) == [0, 1]
        assert ring.slabs[0].count == 2
        assert ring.slabs[1].count == 1
        assert ring.count == 3

    def test_negative_time_rejected(self):
        ring = WindowedHistogram()
        with pytest.raises(ValueError, match="t_ms"):
            ring.record(1.0, t_ms=-0.1)

    def test_window_covers_recent_buckets_only(self):
        ring = WindowedHistogram(bucket_ms=1000.0, window_ms=2000.0)
        ring.record(10.0, t_ms=500.0)  # bucket 0
        ring.record(20.0, t_ms=1500.0)  # bucket 1
        ring.record(30.0, t_ms=2500.0)  # bucket 2
        current = ring.window()
        # end_ms = 3000, window [1000, 3000): buckets 1 and 2 only.
        assert current.count == 2
        assert current.min == pytest.approx(20.0)

    def test_window_snaps_to_bucket_boundaries(self):
        ring = WindowedHistogram(bucket_ms=1000.0)
        ring.record(10.0, t_ms=500.0)
        # A 1ms window ending mid-bucket-1 excludes bucket 0 (its start,
        # 0, lies outside [1500-1, 1500)).
        assert ring.window(duration_ms=1.0, end_ms=1500.0).count == 0
        # But any window whose span covers bucket 0's *start* includes
        # the whole slab.
        assert ring.window(duration_ms=1501.0, end_ms=1500.0).count == 1

    def test_eviction_is_deterministic_on_data_time(self):
        ring = WindowedHistogram(bucket_ms=1000.0, max_buckets=3)
        for bucket in range(5):
            ring.record(float(bucket), t_ms=bucket * 1000.0)
        # floor = max_index - max_buckets + 1 = 4 - 3 + 1 = 2
        assert sorted(ring.slabs) == [2, 3, 4]
        assert ring.count == 3

    def test_end_ms_is_exclusive_end_of_newest_bucket(self):
        ring = WindowedHistogram(bucket_ms=1000.0)
        assert ring.end_ms() == 0.0
        ring.record(1.0, t_ms=2345.0)
        assert ring.end_ms() == pytest.approx(3000.0)

    def test_merge_equals_single_recording(self):
        values = [(float(i % 7) * 3.0 + 1.0, i * 137.0) for i in range(40)]
        single = WindowedHistogram(bucket_ms=1000.0)
        left = WindowedHistogram(bucket_ms=1000.0)
        right = WindowedHistogram(bucket_ms=1000.0)
        for index, (value, t_ms) in enumerate(values):
            single.record(value, t_ms=t_ms)
            (left if index % 2 else right).record(value, t_ms=t_ms)
        left.merge(right)
        assert left.state() == single.state()

    def test_merge_rejects_mismatched_layout(self):
        with pytest.raises(ValueError, match="bucket"):
            WindowedHistogram(bucket_ms=1000.0).merge(
                WindowedHistogram(bucket_ms=500.0)
            )

    def test_state_round_trip_exact(self):
        ring = WindowedHistogram(bucket_ms=250.0, window_ms=1000.0)
        for i in range(20):
            ring.record(float(i), t_ms=i * 100.0)
        rebuilt = WindowedHistogram.from_state(ring.state())
        assert rebuilt.state() == ring.state()
        assert rebuilt.window().state_dict() == ring.window().state_dict()

    def test_from_state_rejects_wrong_kind(self):
        counter = WindowedCounter()
        counter.add(1.0, t_ms=0.0)
        with pytest.raises(ValueError, match="histogram"):
            WindowedHistogram.from_state(counter.state())

    def test_validation(self):
        with pytest.raises(ValueError, match="bucket_ms"):
            WindowedHistogram(bucket_ms=0.0)
        with pytest.raises(ValueError, match="window_ms"):
            WindowedHistogram(window_ms=-1.0)
        with pytest.raises(ValueError, match="max_buckets"):
            WindowedHistogram(max_buckets=0)


class TestWindowedCounter:
    def test_window_sum_and_rate(self):
        counter = WindowedCounter(bucket_ms=1000.0, window_ms=2000.0)
        counter.add(1.0, t_ms=500.0)
        counter.add(2.0, t_ms=1500.0)
        counter.add(4.0, t_ms=2500.0)
        # window [1000, 3000): buckets 1 and 2.
        assert counter.window_sum() == pytest.approx(6.0)
        assert counter.rate_per_s() == pytest.approx(3.0)
        assert counter.total == pytest.approx(7.0)

    def test_eviction_bounds_the_ring(self):
        counter = WindowedCounter(bucket_ms=1000.0, max_buckets=2)
        for bucket in range(4):
            counter.add(1.0, t_ms=bucket * 1000.0)
        assert sorted(counter.buckets) == [2, 3]

    def test_merge_equals_single_recording(self):
        single = WindowedCounter(bucket_ms=500.0)
        left = WindowedCounter(bucket_ms=500.0)
        right = WindowedCounter(bucket_ms=500.0)
        for i in range(30):
            single.add(1.0, t_ms=i * 333.0)
            (left if i % 3 else right).add(1.0, t_ms=i * 333.0)
        left.merge(right)
        assert left.state() == single.state()

    def test_merge_rejects_mismatched_bucket_ms(self):
        with pytest.raises(ValueError, match="bucket_ms"):
            WindowedCounter(bucket_ms=1000.0).merge(
                WindowedCounter(bucket_ms=100.0)
            )

    def test_state_round_trip_exact(self):
        counter = WindowedCounter(bucket_ms=100.0, window_ms=300.0)
        for i in range(12):
            counter.add(float(i), t_ms=i * 75.0)
        assert WindowedCounter.from_state(counter.state()).state() == counter.state()

    @settings(max_examples=300, deadline=None)
    @given(
        bucket_ms=st.floats(0.1, 2_000.0),
        max_buckets=st.integers(1, 40),
        # Times, spans and ends in bucket widths, so most windows cover
        # fewer buckets than the ring stores (the bounded walk).
        adds=st.lists(
            st.tuples(st.integers(0, 5), st.floats(0.0, 120.0)), max_size=80
        ),
        merged=st.lists(st.floats(0.0, 120.0), max_size=10),
        duration=st.one_of(st.none(), st.floats(0.01, 150.0)),
        end=st.one_of(
            st.none(),
            st.floats(-2.0, 130.0),
            st.sampled_from([float("inf"), float("-inf")]),
        ),
    )
    def test_window_sum_matches_full_bucket_scan(
        self, bucket_ms, max_buckets, adds, merged, duration, end
    ):
        """The bounded index walk sums exactly the buckets a scan of every
        stored bucket would: out-of-order times, non-integer widths,
        evicted buckets, and stale buckets folded in by ``merge``."""
        counter = WindowedCounter(bucket_ms=bucket_ms, max_buckets=max_buckets)
        for by, t in adds:  # arbitrary order: late adds below the floor drop
            counter.add(float(by), t_ms=t * bucket_ms)
        stale = WindowedCounter(bucket_ms=bucket_ms)
        for t in merged:
            stale.add(1.0, t_ms=t * bucket_ms)
        counter.merge(stale)
        duration_ms = None if duration is None else duration * bucket_ms
        end_ms = None if end is None else end * bucket_ms
        hi = counter.end_ms() if end_ms is None else end_ms
        lo = hi - (counter.window_ms if duration_ms is None else duration_ms)
        scanned = sum(
            value
            for index, value in counter.buckets.items()
            if lo <= index * bucket_ms < hi
        )
        assert counter.window_sum(duration_ms, end_ms) == scanned


def _ring_of(kind, max_buckets, points):
    """A ring of ``kind`` fed ``(value, t_ms)`` points in the given order."""
    if kind == "counter":
        ring = WindowedCounter(bucket_ms=1000.0, max_buckets=max_buckets)
        for value, t_ms in points:
            ring.add(float(value), t_ms=t_ms)
    else:
        ring = WindowedHistogram(bucket_ms=1000.0, max_buckets=max_buckets)
        for value, t_ms in points:
            ring.record(float(value), t_ms=t_ms)
    return ring


# Integer values and times spanning many ring widths: sums stay exact, so
# any difference is which buckets survive, not float rounding.
_POINTS = st.lists(
    st.tuples(st.integers(0, 9), st.floats(0.0, 30_000.0)), max_size=40
)


class TestFloorDropsLateData:
    @pytest.mark.parametrize("kind", ["counter", "histogram"])
    def test_late_add_below_floor_is_dropped(self, kind):
        ring = _ring_of(kind, 4, [(1, 9000.0), (1, 500.0)])
        kept = ring.buckets if kind == "counter" else ring.slabs
        assert sorted(kept) == [9]
        state = ring.state()
        assert type(ring).from_state(state).state() == state

    def test_counter_add_reports_whether_it_kept_the_value(self):
        ring = WindowedCounter(bucket_ms=1000.0, max_buckets=4)
        assert ring.add(1.0, t_ms=9000.0)
        assert ring.add(1.0, t_ms=6000.0)  # bucket 6 is the floor
        assert not ring.add(1.0, t_ms=5999.0)
        assert ring.total == 2.0

    @pytest.mark.parametrize("kind", ["counter", "histogram"])
    def test_merging_an_older_ring_keeps_evicted_buckets_out(self, kind):
        a = _ring_of(kind, 4, [(1, 0.0), (1, 1000.0)]).state()
        b = _ring_of(kind, 4, [(1, 9000.0)]).state()
        assert merge_window_states([a, b]) == merge_window_states([b, a])
        assert sorted(merge_window_states([b, a])["buckets"]) == ["9"]

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["counter", "histogram"]),
        max_buckets=st.integers(1, 12),
        parts=st.lists(_POINTS, min_size=2, max_size=3),
        order=st.randoms(use_true_random=False),
    )
    def test_merge_order_does_not_change_the_result(
        self, kind, max_buckets, parts, order
    ):
        states = [_ring_of(kind, max_buckets, points).state() for points in parts]
        shuffled = list(states)
        order.shuffle(shuffled)
        assert merge_window_states(shuffled) == merge_window_states(states)

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["counter", "histogram"]),
        max_buckets=st.integers(1, 12),
        points=_POINTS,
        order=st.randoms(use_true_random=False),
    )
    def test_state_round_trip_exact_under_out_of_order_adds(
        self, kind, max_buckets, points, order
    ):
        shuffled = list(points)
        order.shuffle(shuffled)
        ring = _ring_of(kind, max_buckets, shuffled)
        state = ring.state()
        assert type(ring).from_state(state).state() == state
        # What survives depends only on the data, not its arrival order.
        assert state == _ring_of(kind, max_buckets, sorted(points, key=lambda p: p[1])).state()


class TestMergeStates:
    def _hist_state(self, *pairs):
        ring = WindowedHistogram(bucket_ms=1000.0)
        for value, t_ms in pairs:
            ring.record(value, t_ms=t_ms)
        return ring.state()

    def test_merge_states_rederives_current_summary(self):
        a = self._hist_state((10.0, 100.0), (20.0, 1100.0))
        b = self._hist_state((30.0, 1200.0), (40.0, 2200.0))
        merged = merge_window_states([a, b])
        reference = WindowedHistogram(bucket_ms=1000.0)
        for value, t_ms in (
            (10.0, 100.0),
            (20.0, 1100.0),
            (30.0, 1200.0),
            (40.0, 2200.0),
        ):
            reference.record(value, t_ms=t_ms)
        assert merged == reference.state()

    def test_merge_states_rejects_empty_and_mixed_kinds(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_window_states([])
        counter = WindowedCounter()
        counter.add(1.0, t_ms=0.0)
        with pytest.raises(ValueError, match="mixed"):
            merge_window_states([self._hist_state((1.0, 0.0)), counter.state()])

    def test_merge_sections_folds_name_by_name(self):
        counter = WindowedCounter()
        counter.add(2.0, t_ms=0.0)
        section_a = {
            "latency": self._hist_state((10.0, 0.0)),
            "requests": counter.state(),
        }
        section_b = {"latency": self._hist_state((20.0, 0.0))}
        merged = merge_window_sections([section_a, section_b])
        assert set(merged) == {"latency", "requests"}
        assert merged["latency"]["current"]["count"] == 2
        assert merged["requests"]["current"]["sum"] == pytest.approx(2.0)

    def test_merge_sections_of_nothing_is_empty(self):
        assert merge_window_sections([]) == {}
        assert merge_window_sections([{}, {}]) == {}


class TestRegistryIntegration:
    def test_observe_at_feeds_cumulative_and_window(self):
        with get_registry().scoped() as reg:
            reg.observe_at("t.latency_ms", 12.0, t_ms=500.0)
            reg.observe_at("t.latency_ms", 40.0, t_ms=1500.0)
            assert reg.histogram("t.latency_ms").count == 2
            ring = reg.window("t.latency_ms")
            assert ring is not None
            assert sorted(ring.slabs) == [0, 1]
            snapshot = reg.snapshot()
            assert snapshot["windows"]["t.latency_ms"]["kind"] == "histogram"
            assert snapshot["windows"]["t.latency_ms"]["current"]["count"] == 2

    def test_count_at_feeds_cumulative_and_window(self):
        with get_registry().scoped() as reg:
            reg.count_at("t.requests", t_ms=100.0)
            reg.count_at("t.requests", by=2, t_ms=1200.0)
            assert reg.counter("t.requests") == 3
            counter = reg.window_counter("t.requests")
            assert counter is not None
            assert counter.total == pytest.approx(3.0)
            state = reg.snapshot()["windows"]["t.requests"]
            assert state["kind"] == "counter"

    def test_disabled_registry_records_nothing_windowed(self):
        from repro.perf import PerfRegistry

        reg = PerfRegistry(enabled=False)
        reg.observe_at("t.latency_ms", 5.0, t_ms=0.0)
        reg.count_at("t.requests", t_ms=0.0)
        assert reg.snapshot()["windows"] == {}


class TestHistogramMergeabilityProperty:
    """The contract windowed slabs lean on: chunked merge == one histogram."""

    def _values(self):
        # Spans several log-spaced buckets plus the overflow bucket
        # (DEFAULT_BUCKET_BOUNDS tops out around 335 s = 335_000 ms).
        return [0.005 * (1.37 ** i) + (i % 5) for i in range(60)] + [
            1e9,
            2e9,
        ]

    def test_chunked_merge_equals_single_histogram(self):
        values = self._values()
        single = HistogramStat()
        for value in values:
            single.record(value)
        merged = HistogramStat()
        for start in range(0, len(values), 7):
            chunk = HistogramStat()
            for value in values[start : start + 7]:
                chunk.record(value)
            merged.merge(chunk)
        assert merged.state_dict() == single.state_dict()
        for q in (0.5, 0.9, 0.99):
            assert merged.quantile(q) == pytest.approx(single.quantile(q))
        assert merged.counts == single.counts
        assert merged.count == single.count

    def test_overflow_bucket_merges(self):
        a, b = HistogramStat(), HistogramStat()
        a.record(1e9)
        b.record(3e9)
        a.merge(b)
        assert a.counts[-1] == 2
        assert a.max == pytest.approx(3e9)
        assert a.count == 2

    def test_merging_empty_is_identity_both_ways(self):
        hist = HistogramStat()
        hist.record(5.0)
        before = hist.state_dict()
        hist.merge(HistogramStat())
        assert hist.state_dict() == before
        empty = HistogramStat()
        empty.merge(hist)
        assert empty.state_dict() == before

    def test_state_dict_round_trip(self):
        hist = HistogramStat()
        for value in self._values():
            hist.record(value)
        rebuilt = HistogramStat.from_state(hist.state_dict())
        assert rebuilt.state_dict() == hist.state_dict()

    def test_merge_rejects_different_bounds(self):
        with pytest.raises(ValueError, match="bounds"):
            HistogramStat().merge(HistogramStat(bounds=(1.0, 2.0)))
