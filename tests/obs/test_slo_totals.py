"""The evaluator's running window totals against the recounting reference.

``BurnRateEvaluator`` keeps (requests, violations) totals per window and
recounts them only when a ring's newest bucket advances; the oracle in
``tests/slo_reference.py`` recounts both windows on every observation.
The two must agree byte for byte after every observation.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.slo import BurnRateEvaluator, SLOPolicy
from tests.slo_reference import ReferenceBurnRateEvaluator


def _replay_both(policy, stream):
    evaluator = BurnRateEvaluator(policy)
    reference = ReferenceBurnRateEvaluator(policy)
    for latency_ms, t_ms in stream:
        event = evaluator.observe(latency_ms, t_ms=t_ms)
        expected = reference.observe(latency_ms, t_ms=t_ms)
        assert event == expected
        assert evaluator.burn_fast == reference.burn_fast
        assert evaluator.burn_slow == reference.burn_slow
    assert evaluator.alerts == reference.alerts
    assert evaluator.state == reference.state
    assert evaluator.budget_consumed == reference.budget_consumed
    return evaluator


class TestRunningTotals:
    @settings(max_examples=200, deadline=None)
    @given(
        bucket_ms=st.one_of(
            st.floats(0.1, 2_000.0), st.sampled_from([1_000.0, 333.3, 7.0])
        ),
        # Window spans in bucket widths, rarely whole multiples; the slow
        # window may reach almost all of the 512-bucket ring (a policy
        # whose window outgrows it is rejected).
        fast=st.floats(0.3, 40.0),
        slow_extra=st.one_of(st.floats(0.0, 60.0), st.floats(420.0, 470.0)),
        target=st.floats(0.5, 0.99),
        threshold=st.floats(0.5, 8.0),
        # Steps in bucket widths; negative steps complete out of order,
        # and jumps of hundreds of buckets evict the ring's tail.
        steps=st.lists(
            st.tuples(
                st.booleans(),
                st.one_of(
                    st.floats(-3.0, 3.0),
                    st.floats(-600.0, 600.0),
                    st.just(0.0),
                ),
            ),
            min_size=1,
            max_size=120,
        ),
    )
    def test_burn_and_alerts_match_reference(
        self, bucket_ms, fast, slow_extra, target, threshold, steps
    ):
        policy = SLOPolicy(
            objective_ms=100.0,
            target=target,
            fast_window_ms=fast * bucket_ms,
            slow_window_ms=(fast + slow_extra) * bucket_ms,
            burn_threshold=threshold,
            bucket_ms=bucket_ms,
        )
        t = 0.0
        stream = []
        for violated, step in steps:
            t = max(0.0, t + step)
            stream.append((150.0 if violated else 50.0, t * bucket_ms))
        _replay_both(policy, stream)

    def test_brownout_stream_fires_and_resolves_like_reference(self):
        policy = SLOPolicy(
            objective_ms=100.0,
            target=0.75,
            fast_window_ms=5_000.0,
            slow_window_ms=15_000.0,
            burn_threshold=2.0,
        )
        stream = [
            (300.0 if 20 <= i < 60 else 20.0, i * 250.0 + (i % 7) * 90.0)
            for i in range(200)
        ]
        evaluator = _replay_both(policy, stream)
        assert [a.state for a in evaluator.alerts] == ["firing", "resolved"]

    def test_summary_matches_window_queries(self):
        policy = SLOPolicy(objective_ms=100.0, bucket_ms=700.0)
        evaluator = BurnRateEvaluator(policy)
        assert evaluator.summary()["burn_fast"] == 0.0
        for i in range(90):
            evaluator.observe(250.0 if i % 3 else 10.0, t_ms=i * 410.0)
        end = evaluator.requests.end_ms()
        summary = evaluator.summary()
        assert summary["burn_fast"] == evaluator.burn_rate(policy.fast_window_ms, end)
        assert summary["burn_slow"] == evaluator.burn_rate(policy.slow_window_ms, end)


class TestNonFiniteLatency:
    @pytest.mark.parametrize("latency", [math.nan, math.inf, -math.inf])
    def test_rejected(self, latency):
        evaluator = BurnRateEvaluator(SLOPolicy(objective_ms=100.0))
        with pytest.raises(ValueError, match="latency_ms"):
            evaluator.observe(latency, t_ms=0.0)
        assert evaluator.total == 0
        assert evaluator.requests.total == 0

    def test_nan_stream_cannot_look_healthy(self):
        evaluator = BurnRateEvaluator(SLOPolicy(objective_ms=100.0))
        for i in range(20):
            with pytest.raises(ValueError):
                evaluator.observe(float("nan"), t_ms=i * 100.0)
        assert evaluator.summary()["burn_fast"] == 0.0
        assert evaluator.total == 0
