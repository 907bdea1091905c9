"""Unit + property tests for bandwidth traces and scenes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.scenarios import ALL_SCENARIOS, get_scenario, scenarios_for
from repro.network.traces import BandwidthTrace, TraceModel, constant_trace


@pytest.fixture
def model():
    return TraceModel(
        mean_mbps=10.0, volatility=0.2, ar_coeff=0.9,
        degraded_ratio=0.3, p_degrade=0.05, p_recover=0.15,
    )


def _direct_window_mean(trace, t_s, window_s):
    """``window_mean`` without its memo: one numpy expression per query."""
    start = int(t_s / trace.interval_s)
    count = max(1, int(round(window_s / trace.interval_s)))
    index = (start + np.arange(count)) % len(trace.samples)
    return float(trace.samples[index].mean())


class TestBandwidthTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthTrace([], 0.1)
        with pytest.raises(ValueError):
            BandwidthTrace([1.0, -1.0], 0.1)
        with pytest.raises(ValueError):
            BandwidthTrace([1.0], 0.0)

    def test_at_zero_order_hold(self):
        trace = BandwidthTrace([1.0, 2.0, 3.0], 1.0)
        assert trace.at(0.5) == 1.0
        assert trace.at(1.5) == 2.0

    def test_at_wraps_around(self):
        trace = BandwidthTrace([1.0, 2.0], 1.0)
        assert trace.at(2.5) == 1.0

    def test_duration(self):
        trace = BandwidthTrace(np.ones(100), 0.1)
        assert trace.duration_s == pytest.approx(10.0)

    def test_window_mean(self):
        trace = BandwidthTrace([2.0, 4.0, 6.0, 8.0], 1.0)
        assert trace.window_mean(0.0, 2.0) == pytest.approx(3.0)

    def test_window_mean_matches_direct_expression_for_every_start(self):
        """The memo returns what the uncached numpy expression returns, for
        every start (wrap-around included), before and after a hit."""
        rng = np.random.default_rng(3)
        trace = BandwidthTrace(rng.uniform(0.5, 20.0, size=17), 0.1)
        n = len(trace.samples)
        queries = [
            (start * 0.1 + 0.01, window_s)
            for start in range(3 * n)  # past the end: the trace wraps
            for window_s in (0.05, 0.1, 0.3, 1.0, 2.5)
        ]
        for _ in range(2):
            for t_s, window_s in queries:
                assert trace.window_mean(t_s, window_s) == _direct_window_mean(
                    trace, t_s, window_s
                )

    @settings(max_examples=200, deadline=None)
    @given(
        length=st.integers(1, 40),
        interval_s=st.sampled_from([0.1, 0.25, 1.0, 0.07]),
        queries=st.lists(
            st.tuples(st.floats(0.0, 500.0), st.floats(0.0, 12.0)), max_size=30
        ),
    )
    def test_window_mean_property(self, length, interval_s, queries):
        trace = BandwidthTrace(np.linspace(1.0, 9.0, length) ** 1.5, interval_s)
        for t_s, window_s in queries + queries:
            assert trace.window_mean(t_s, window_s) == _direct_window_mean(
                trace, t_s, window_s
            )

    def test_samples_are_a_read_only_copy(self):
        samples = np.full(10, 5.0)
        trace = BandwidthTrace(samples, 0.1)
        assert trace.window_mean(0.0, 1.0) == 5.0
        samples[:] = 50.0  # the caller reuses its buffer
        samples[3] = -1.0  # ...even with values validation would refuse
        assert trace.at(0.0) == 5.0
        assert trace.window_mean(0.0, 1.0) == 5.0
        assert trace.window_mean(0.2, 0.5) == 5.0
        with pytest.raises(ValueError):
            trace.samples[0] = 50.0

    def test_stats_quartiles(self):
        trace = BandwidthTrace(np.arange(1.0, 101.0), 0.1)
        stats = trace.stats()
        assert stats.lower_quartile < stats.mean < stats.upper_quartile
        assert stats.minimum == 1.0
        assert stats.maximum == 100.0

    def test_bandwidth_types_k2_are_quartiles(self):
        trace = BandwidthTrace(np.arange(1.0, 101.0), 0.1)
        types = trace.bandwidth_types(2)
        stats = trace.stats()
        assert types == [stats.lower_quartile, stats.upper_quartile]

    def test_bandwidth_types_k1_is_median(self):
        trace = BandwidthTrace(np.arange(1.0, 102.0), 0.1)
        assert trace.bandwidth_types(1) == [float(np.median(trace.samples))]

    def test_bandwidth_types_k3_sorted(self):
        trace = BandwidthTrace(np.arange(1.0, 101.0), 0.1)
        types = trace.bandwidth_types(3)
        assert types == sorted(types)
        assert len(types) == 3

    def test_bandwidth_types_invalid_k(self):
        with pytest.raises(ValueError):
            BandwidthTrace([1.0], 0.1).bandwidth_types(0)

    def test_classify_picks_nearest(self):
        trace = BandwidthTrace(np.arange(1.0, 101.0), 0.1)
        q1, q3 = trace.bandwidth_types(2)
        assert trace.classify(q1 - 1.0) == 0
        assert trace.classify(q3 + 1.0) == 1

    def test_constant_trace(self):
        trace = constant_trace(5.0, duration_s=2.0)
        assert trace.at(0.0) == 5.0
        assert trace.stats().std == 0.0


class TestTraceModel:
    def test_deterministic_by_seed(self, model):
        a = model.generate(10.0, 0.1, seed=7)
        b = model.generate(10.0, 0.1, seed=7)
        np.testing.assert_allclose(a.samples, b.samples)

    def test_different_seeds_differ(self, model):
        a = model.generate(10.0, 0.1, seed=1)
        b = model.generate(10.0, 0.1, seed=2)
        assert not np.allclose(a.samples, b.samples)

    def test_positive_and_floored(self, model):
        trace = model.generate(30.0, 0.1, seed=0)
        assert (trace.samples >= model.floor_mbps).all()

    def test_mean_in_ballpark(self, model):
        trace = model.generate(120.0, 0.1, seed=3)
        assert 0.4 * model.mean_mbps < trace.samples.mean() < 1.6 * model.mean_mbps

    def test_degraded_regime_produces_dips(self):
        dippy = TraceModel(
            mean_mbps=10.0, volatility=0.05, ar_coeff=0.9,
            degraded_ratio=0.1, p_degrade=0.1, p_recover=0.1,
        )
        trace = dippy.generate(60.0, 0.1, seed=0)
        assert trace.samples.min() < 3.0  # deep dips exist
        assert trace.samples.max() > 7.0  # but the good regime dominates

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_any_seed_valid_trace(self, seed):
        model = TraceModel(
            mean_mbps=8.0, volatility=0.4, ar_coeff=0.85,
            degraded_ratio=0.2, p_degrade=0.08, p_recover=0.1,
        )
        trace = model.generate(20.0, 0.1, seed=seed)
        assert (trace.samples > 0).all()
        assert np.isfinite(trace.samples).all()


class TestScenarios:
    def test_scene_counts_match_paper(self):
        assert len(scenarios_for("vgg11")) == 10  # 7 phone + 3 TX2
        assert len(scenarios_for("alexnet")) == 4
        assert len(ALL_SCENARIOS) == 14

    def test_get_scenario(self):
        scenario = get_scenario("vgg11", "tx2", "4G indoor static")
        assert scenario.device_name == "tx2"
        assert scenario.link == "4g"

    def test_get_scenario_unknown(self):
        with pytest.raises(KeyError):
            get_scenario("vgg11", "watch", "5G")

    def test_scenarios_have_unique_seeds(self):
        seeds = [s.seed for s in ALL_SCENARIOS]
        assert len(set(seeds)) == len(seeds)

    def test_weak_scenes_have_lower_means(self):
        weak = get_scenario("vgg11", "phone", "WiFi (weak) indoor")
        slow = get_scenario("vgg11", "phone", "WiFi outdoor slow")
        assert weak.trace_model.mean_mbps < slow.trace_model.mean_mbps

    def test_static_scene_smoothest(self):
        static = get_scenario("vgg11", "phone", "4G indoor static")
        quick = get_scenario("vgg11", "phone", "4G outdoor quick")
        static_cv = static.trace(60).stats().std / static.trace(60).stats().mean
        quick_cv = quick.trace(60).stats().std / quick.trace(60).stats().mean
        assert static_cv < quick_cv

    def test_transfer_model_matches_link(self):
        from repro.latency.transfer import CELLULAR_TRANSFER, WIFI_TRANSFER

        assert get_scenario("vgg11", "phone", "4G indoor slow").transfer_model is CELLULAR_TRANSFER
        assert get_scenario("alexnet", "phone", "WiFi outdoor slow").transfer_model is WIFI_TRANSFER

    def test_str_rendering(self):
        assert str(ALL_SCENARIOS[0]) == "vgg11/phone/4G (weak) indoor"
