"""SLO burn-rate engine: policy, evaluator state machine, demo scenario."""

import numpy as np
import pytest

from repro.accuracy import FixedAccuracy
from repro.latency import CLOUD_SERVER, XIAOMI_MI_6X
from repro.latency.transfer import WIFI_TRANSFER
from repro.mdp import PAPER_REWARD
from repro.network.channel import Channel
from repro.network.traces import constant_trace
from repro.nn.zoo import vgg11
from repro.obs.slo import (
    AlertEvent,
    BurnRateEvaluator,
    SLOPolicy,
    SLOStatus,
    make_burn_rate_breaker,
)
from repro.obs.report import summarize_trace
from repro.obs.trace import recording
from repro.perf import HistogramStat, get_registry
from repro.runtime.engine import FixedPlan, RuntimeEnvironment
from repro.runtime.emulator import run_emulation
from repro.runtime.faults import CloudBrownout, FaultSchedule
from repro.runtime.resilience import CircuitBreaker


def make_env(**overrides):
    trace = constant_trace(10.0, duration_s=60.0)
    defaults = dict(
        edge=XIAOMI_MI_6X,
        cloud=CLOUD_SERVER,
        trace=trace,
        channel=Channel(trace, WIFI_TRANSFER),
        accuracy=FixedAccuracy(0.9201),
        reward=PAPER_REWARD,
    )
    defaults.update(overrides)
    return RuntimeEnvironment(**defaults)


def fast_policy(**overrides):
    defaults = dict(
        objective_ms=100.0,
        target=0.75,
        fast_window_ms=5_000.0,
        slow_window_ms=15_000.0,
        burn_threshold=2.0,
        bucket_ms=1_000.0,
    )
    defaults.update(overrides)
    return SLOPolicy(**defaults)


class TestSLOPolicy:
    def test_error_budget(self):
        assert SLOPolicy(objective_ms=100.0, target=0.9).error_budget == (
            pytest.approx(0.1)
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="objective_ms"):
            SLOPolicy(objective_ms=0.0)
        with pytest.raises(ValueError, match="target"):
            SLOPolicy(objective_ms=1.0, target=1.0)
        with pytest.raises(ValueError, match="target"):
            SLOPolicy(objective_ms=1.0, target=0.0)
        with pytest.raises(ValueError, match="windows"):
            SLOPolicy(objective_ms=1.0, fast_window_ms=0.0)
        with pytest.raises(ValueError, match="fast_window_ms"):
            SLOPolicy(
                objective_ms=1.0, fast_window_ms=10_000.0, slow_window_ms=5_000.0
            )
        with pytest.raises(ValueError, match="burn_threshold"):
            SLOPolicy(objective_ms=1.0, burn_threshold=0.0)
        with pytest.raises(ValueError, match="bucket_ms"):
            SLOPolicy(objective_ms=1.0, bucket_ms=-1.0)

    def test_slow_window_must_fit_the_rings(self):
        """Regression: a slow window longer than the evaluator's 512-bucket
        rings was accepted and then silently covered only the ring (600
        one-second observations left ``window_sum(600_000)`` at 512)."""
        with pytest.raises(ValueError, match=r"600000\.0.*512.*1000\.0"):
            SLOPolicy(objective_ms=1.0, slow_window_ms=600_000.0, bucket_ms=1_000.0)
        policy = SLOPolicy(objective_ms=1.0, slow_window_ms=512_000.0, bucket_ms=1_000.0)
        evaluator = BurnRateEvaluator(policy)
        for i in range(600):
            evaluator.observe(0.5, t_ms=i * 1_000.0)
        assert evaluator.requests.window_sum(policy.slow_window_ms) == 512


class TestBurnRateEvaluator:
    def test_quiet_stream_never_alerts(self):
        evaluator = BurnRateEvaluator(fast_policy())
        for i in range(40):
            assert evaluator.observe(50.0, t_ms=i * 500.0) is None
        assert evaluator.state == "ok"
        assert evaluator.alerts == []
        assert evaluator.budget_consumed == 0.0

    def test_burn_rate_zero_with_no_requests(self):
        evaluator = BurnRateEvaluator(fast_policy())
        assert evaluator.burn_rate(5_000.0) == 0.0
        assert evaluator.budget_consumed == 0.0

    def test_fires_when_both_windows_burn(self):
        evaluator = BurnRateEvaluator(fast_policy())
        # 20 s of healthy traffic, then sustained violations.
        for i in range(40):
            evaluator.observe(50.0, t_ms=i * 500.0)
        fired = None
        for i in range(40):
            event = evaluator.observe(500.0, t_ms=20_000.0 + i * 500.0)
            if event is not None:
                fired = event
                break
        assert fired is not None
        assert fired.state == AlertEvent.FIRING
        assert evaluator.firing
        assert fired.burn_fast >= evaluator.policy.burn_threshold
        assert fired.burn_slow >= evaluator.policy.burn_threshold
        # The slow window gates the fast one: firing needs sustained burn,
        # so the transition cannot happen in the first violating second.
        assert fired.t_sim_ms >= 20_000.0 + 1_000.0

    def test_single_slow_request_cannot_page(self):
        evaluator = BurnRateEvaluator(fast_policy())
        for i in range(30):
            evaluator.observe(50.0, t_ms=i * 500.0)
        event = evaluator.observe(10_000.0, t_ms=15_100.0)
        assert event is None
        assert evaluator.state == "ok"

    def test_resolves_when_fast_window_recovers(self):
        evaluator = BurnRateEvaluator(fast_policy())
        for i in range(40):
            evaluator.observe(500.0, t_ms=i * 500.0)
        assert evaluator.firing
        resolved = None
        for i in range(40):
            event = evaluator.observe(50.0, t_ms=20_000.0 + i * 500.0)
            if event is not None:
                resolved = event
                break
        assert resolved is not None
        assert resolved.state == AlertEvent.RESOLVED
        assert resolved.burn_fast < evaluator.policy.burn_threshold
        # Asymmetric resolve: the slow window may still remember the burn.
        states = [alert.state for alert in evaluator.alerts]
        assert states == [AlertEvent.FIRING, AlertEvent.RESOLVED]
        # Recovery happens within (roughly) one fast window of the clear,
        # not a slow window later.
        assert resolved.t_sim_ms <= 20_000.0 + evaluator.policy.fast_window_ms + 1_000.0

    def test_alert_transitions_land_in_trace(self, tmp_path):
        path = tmp_path / "slo.jsonl"
        with recording(path):
            evaluator = BurnRateEvaluator(fast_policy())
            for i in range(40):
                evaluator.observe(500.0, t_ms=i * 500.0)
            for i in range(40):
                evaluator.observe(50.0, t_ms=20_000.0 + i * 500.0)
        summary = summarize_trace(path)
        states = [r["fields"]["state"] for r in summary.slo_alerts]
        assert states == ["firing", "resolved"]
        assert all(r["name"] == "slo.alert" for r in summary.resilience)

    def test_summary_shape(self):
        evaluator = BurnRateEvaluator(fast_policy())
        evaluator.observe(50.0, t_ms=100.0)
        summary = evaluator.summary()
        assert summary["state"] == "ok"
        assert summary["alerts"] == 0
        assert summary["objective_ms"] == 100.0
        assert summary["target"] == 0.75

    def test_status_from_evaluator(self):
        assert SLOStatus.from_evaluator(None) is None
        evaluator = BurnRateEvaluator(fast_policy())
        evaluator.observe(50.0, t_ms=100.0)
        status = SLOStatus.from_evaluator(evaluator)
        assert status.state == "ok"
        assert status.budget_consumed == 0.0
        # A lone violation with no healthy history saturates both windows.
        evaluator.observe(500.0, t_ms=20_000.0)
        status = SLOStatus.from_evaluator(evaluator)
        assert status.state == "firing"
        assert status.budget_consumed > 0.0


class TestBurnRateBreaker:
    def test_refuses_offloads_while_firing(self):
        evaluator = BurnRateEvaluator(fast_policy())
        breaker = make_burn_rate_breaker(evaluator)
        assert isinstance(breaker, CircuitBreaker)
        assert breaker.allow(0.0)
        for i in range(40):
            evaluator.observe(500.0, t_ms=i * 500.0)
        assert evaluator.firing
        assert not breaker.allow(20_000.0)
        for i in range(40):
            evaluator.observe(50.0, t_ms=20_000.0 + i * 500.0)
        assert not evaluator.firing
        assert breaker.allow(40_000.0)


BROWNOUT_START_MS = 20_000.0
BROWNOUT_END_MS = 35_000.0


def run_brownout_demo(tmp_path):
    """The acceptance scenario: a mid-run CloudBrownout under an SLO."""
    schedule = FaultSchedule(
        (
            CloudBrownout(
                BROWNOUT_START_MS, BROWNOUT_END_MS, latency_multiplier=10.0
            ),
        )
    )
    env = make_env(faults=schedule)
    policy = fast_policy(objective_ms=32.0)
    path = tmp_path / "brownout.jsonl"
    with get_registry().scoped(), recording(path):
        result = run_emulation(
            FixedPlan(None, vgg11()),
            env,
            num_requests=60,
            seed=0,
            slo=policy,
        )
    return result, summarize_trace(path), policy


class TestBrownoutDemo:
    """Deterministic end-to-end SLO demo (the PR's acceptance scenario)."""

    def test_alert_fires_inside_brownout_and_resolves_after(self, tmp_path):
        result, summary, policy = run_brownout_demo(tmp_path)
        states = [r["fields"]["state"] for r in summary.slo_alerts]
        assert states == ["firing", "resolved"]
        firing, resolved = (r["fields"] for r in summary.slo_alerts)
        # The alert fires while the brownout is active, once the slow
        # window confirms the burn — within its confirmation time, i.e.
        # the violation fraction reaching threshold * error_budget.
        confirm_ms = (
            policy.slow_window_ms * policy.burn_threshold * policy.error_budget
        )
        assert BROWNOUT_START_MS < firing["t_sim_ms"] < BROWNOUT_END_MS
        assert firing["t_sim_ms"] <= (
            BROWNOUT_START_MS + confirm_ms + policy.fast_window_ms
        )
        # And resolves within about one fast window of the fault clearing.
        assert (
            BROWNOUT_END_MS
            < resolved["t_sim_ms"]
            <= BROWNOUT_END_MS + policy.fast_window_ms + 1_000.0
        )
        assert result.slo["state"] == "resolved"
        assert result.slo["alerts"] == 2

    def test_budget_recovers_after_the_clear(self, tmp_path):
        result, summary, _ = run_brownout_demo(tmp_path)
        resolved = summary.slo_alerts[-1]["fields"]
        # Healthy traffic after the resolve pushes overall budget spend
        # back down from its resolve-time peak.
        assert result.slo["budget_consumed"] < resolved["budget_consumed"]
        assert result.slo["burn_fast"] == 0.0

    def test_windowed_view_sees_what_cumulative_dilutes(self, tmp_path):
        result, summary, policy = run_brownout_demo(tmp_path)
        ring = summary.windowed_latency
        # The 10 s window ending at the brownout's last bucket is all
        # violations; the run's final window is all healthy traffic.
        during = ring.window(duration_ms=10_000.0, end_ms=BROWNOUT_END_MS)
        after = ring.window(duration_ms=10_000.0)
        assert during.p50 > policy.objective_ms
        assert after.p50 < policy.objective_ms
        # The cumulative p50 blurs the two regimes into one in-between
        # number — the spike is invisible without the windows.
        assert after.p50 < summary.request_latency.p50 < during.p50

    def test_cumulative_metrics_cannot_distinguish_the_same_run(self, tmp_path):
        """Same latency multiset, spread evenly: identical cumulative
        histogram, no alert — the windowed evaluator is load-bearing."""
        result, _, policy = run_brownout_demo(tmp_path)
        times = [o.start_ms + o.latency_ms for o in result.outcomes]
        latencies = [o.latency_ms for o in result.outcomes]

        # Re-order the same latencies so violations interleave evenly
        # across the run instead of clustering in the brownout.
        bad = sorted(l for l in latencies if l > policy.objective_ms)
        good = sorted(l for l in latencies if l <= policy.objective_ms)
        assert bad and good
        spread = list(good)
        stride = len(latencies) / len(bad)
        # Offset by one stride: a healthy prefix keeps the very first
        # window from being 100% violations (which would rightly page).
        for i, value in enumerate(bad):
            spread.insert(min(int((i + 1) * stride), len(spread)), value)
        assert sorted(spread) == sorted(latencies)

        clustered_hist, spread_hist = HistogramStat(), HistogramStat()
        clustered_eval = BurnRateEvaluator(policy)
        spread_eval = BurnRateEvaluator(policy)
        for t_ms, clustered_l, spread_l in zip(times, latencies, spread):
            clustered_hist.record(clustered_l)
            spread_hist.record(spread_l)
            clustered_eval.observe(clustered_l, t_ms=t_ms)
            spread_eval.observe(spread_l, t_ms=t_ms)

        # Cumulative histograms are bit-identical...
        assert clustered_hist.state_dict() == spread_hist.state_dict()
        # ...but only the clustered run pages.
        assert [a.state for a in clustered_eval.alerts] == [
            AlertEvent.FIRING,
            AlertEvent.RESOLVED,
        ]
        assert spread_eval.alerts == []
        assert spread_eval.state == "ok"


class TestEmulatorWiring:
    def test_no_slo_means_no_summary(self):
        with get_registry().scoped():
            result = run_emulation(
                FixedPlan(None, vgg11()), make_env(), num_requests=4, seed=0
            )
        assert result.slo is None

    def test_windowed_registry_metrics_recorded(self):
        with get_registry().scoped() as reg:
            run_emulation(
                FixedPlan(None, vgg11()), make_env(), num_requests=8, seed=0
            )
            snapshot = reg.snapshot()
        windows = snapshot["windows"]
        assert windows["emulator.request.latency_ms"]["kind"] == "histogram"
        assert windows["emulator.requests"]["kind"] == "counter"
        assert windows["emulator.request.latency_ms"]["current"]["count"] > 0
        # Cumulative companions stay in their sections.
        assert snapshot["counters"]["emulator.requests"] == 8
        assert snapshot["histograms"]["emulator.request.latency_ms"]["count"] == 8
