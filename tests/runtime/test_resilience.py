"""Resilient offload path: retries, circuit breaker, degraded mode."""

import numpy as np
import pytest

from repro.accuracy import FixedAccuracy
from repro.latency import CLOUD_SERVER, XIAOMI_MI_6X
from repro.latency.transfer import WIFI_TRANSFER
from repro.mdp import PAPER_REWARD
from repro.network.channel import Channel
from repro.network.traces import constant_trace
from repro.nn.zoo import vgg11
from repro.runtime.engine import FixedPlan, RuntimeEnvironment
from repro.runtime.faults import FaultSchedule, TransferLoss
from repro.runtime.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitBreakerConfig,
    OffloadPolicy,
    resolve_offload,
)
from repro.runtime.session import InferenceSession
from tests.conftest import make_split_tree


def make_env(outages=(), detect_ms=200.0, faults=None):
    trace = constant_trace(10.0, duration_s=120.0)
    return RuntimeEnvironment(
        edge=XIAOMI_MI_6X,
        cloud=CLOUD_SERVER,
        trace=trace,
        channel=Channel(trace, WIFI_TRANSFER),
        accuracy=FixedAccuracy(0.9201),
        reward=PAPER_REWARD,
        cloud_outages=tuple(outages),
        outage_detect_ms=detect_ms,
        faults=faults,
    )


@pytest.fixture
def base():
    return vgg11()


class TestCircuitBreaker:
    def test_full_cycle_closed_open_half_open_closed(self):
        breaker = CircuitBreaker(
            CircuitBreakerConfig(failure_threshold=2, cooldown_ms=1000.0)
        )
        assert breaker.state == CLOSED
        assert breaker.allow(0.0)

        breaker.record_failure(10.0)
        assert breaker.state == CLOSED  # below threshold
        breaker.record_failure(20.0)
        assert breaker.state == OPEN  # tripped

        assert not breaker.allow(500.0)  # cooling down
        assert breaker.allow(1020.0)  # cooldown over: half-open probe
        assert breaker.state == HALF_OPEN

        breaker.record_success(1050.0)
        assert breaker.state == CLOSED

        counts = breaker.transition_counts()
        assert counts == {
            "closed->open": 1,
            "open->half_open": 1,
            "half_open->closed": 1,
        }

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(
            CircuitBreakerConfig(failure_threshold=1, cooldown_ms=1000.0)
        )
        breaker.record_failure(0.0)
        assert breaker.state == OPEN
        assert breaker.allow(1000.0)
        assert breaker.state == HALF_OPEN
        breaker.record_failure(1100.0)
        assert breaker.state == OPEN
        # The cooldown restarts from the half-open failure.
        assert not breaker.allow(1500.0)
        assert breaker.allow(2100.0)

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(CircuitBreakerConfig(failure_threshold=2))
        breaker.record_failure(0.0)
        breaker.record_success(1.0)
        breaker.record_failure(2.0)
        assert breaker.state == CLOSED

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CircuitBreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreakerConfig(cooldown_ms=0.0)


class TestOffloadPolicy:
    def test_backoff_grows_exponentially(self):
        policy = OffloadPolicy(backoff_base_ms=10.0, backoff_factor=2.0)
        assert policy.backoff_ms(0) == pytest.approx(10.0)
        assert policy.backoff_ms(1) == pytest.approx(20.0)
        assert policy.backoff_ms(2) == pytest.approx(40.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            OffloadPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            OffloadPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            OffloadPolicy(transfer_timeout_ms=0.0)
        with pytest.raises(ValueError):
            OffloadPolicy(deadline_ms=-5.0)


class TestResolveOffload:
    def test_retry_recovers_from_transient_loss(self, base):
        """First transfer dies, the bounded retry lands the second one."""
        # Loss window covers only the first attempt: the retry (after the
        # stall + backoff) starts past 60ms and sails through.
        schedule = FaultSchedule((TransferLoss(0.0, 1.0, loss_probability=1.0),))
        env = schedule.install(make_env())
        policy = OffloadPolicy(max_retries=2, backoff_base_ms=100.0)
        result = resolve_offload(
            env, np.random.default_rng(0), 0.0, base, 100_000.0, policy=policy
        )
        assert result.offloaded
        assert not result.fell_back
        assert result.retries == 1

    def test_retries_exhausted_falls_back(self, base):
        schedule = FaultSchedule(
            (TransferLoss(0.0, 1e9, loss_probability=1.0),)
        )
        env = schedule.install(make_env())
        policy = OffloadPolicy(max_retries=2, backoff_base_ms=10.0)
        result = resolve_offload(
            env, np.random.default_rng(0), 0.0, base, 100_000.0, policy=policy
        )
        assert result.fell_back
        assert not result.offloaded
        assert result.retries == 2
        assert result.fallback_edge_ms > 0

    def test_outage_attempts_pay_probe_timeout(self, base):
        env = make_env(outages=[(0.0, 1e6)])
        policy = OffloadPolicy(
            max_retries=1, backoff_base_ms=10.0, probe_timeout_ms=50.0
        )
        rng = np.random.default_rng(0)
        result = resolve_offload(env, rng, 0.0, base, 100_000.0, policy=policy)
        fallback_ms = result.fallback_edge_ms
        # Two probes (50 each) + one backoff (10) + the local cloud half.
        assert result.clock_ms == pytest.approx(50.0 + 10.0 + 50.0 + fallback_ms)

    def test_deadline_cuts_retries_and_reports_miss(self, base):
        env = make_env(outages=[(0.0, 1e6)])
        policy = OffloadPolicy(
            max_retries=5,
            backoff_base_ms=100.0,
            probe_timeout_ms=150.0,
            deadline_ms=160.0,
        )
        result = resolve_offload(
            env, np.random.default_rng(0), 0.0, base, 100_000.0, policy=policy
        )
        assert result.fell_back
        # One probe (150) + backoff would overrun the 160ms budget: stop.
        assert result.retries == 0
        assert result.deadline_missed  # the edge fallback overran it anyway

    def test_open_breaker_pins_edge_without_probe_cost(self, base):
        env = make_env(outages=[(0.0, 1e6)])
        policy = OffloadPolicy(probe_timeout_ms=50.0)
        breaker = CircuitBreaker(
            CircuitBreakerConfig(failure_threshold=1, cooldown_ms=1e9)
        )
        breaker.record_failure(0.0)
        assert breaker.state == OPEN
        result = resolve_offload(
            env,
            np.random.default_rng(0),
            0.0,
            base,
            100_000.0,
            policy=policy,
            breaker=breaker,
        )
        assert result.degraded
        assert result.fell_back
        assert result.retries == 0
        # No probe cost: the clock advanced only by the local execution.
        assert result.clock_ms == pytest.approx(result.fallback_edge_ms)

    def test_breaker_opens_mid_request_and_stops_retrying(self, base):
        env = make_env(outages=[(0.0, 1e6)])
        policy = OffloadPolicy(max_retries=5, probe_timeout_ms=50.0)
        breaker = CircuitBreaker(
            CircuitBreakerConfig(failure_threshold=2, cooldown_ms=1e9)
        )
        result = resolve_offload(
            env,
            np.random.default_rng(0),
            0.0,
            base,
            100_000.0,
            policy=policy,
            breaker=breaker,
        )
        assert breaker.state == OPEN
        # Two failures tripped the breaker; no further retries were spent.
        assert result.retries == 1

    def test_success_records_breaker_success(self, base):
        env = make_env()
        breaker = CircuitBreaker()
        result = resolve_offload(
            env,
            np.random.default_rng(0),
            0.0,
            base,
            100_000.0,
            policy=OffloadPolicy(),
            breaker=breaker,
        )
        assert result.offloaded
        assert breaker.state == CLOSED
        assert breaker.transition_counts() == {}


class TestPlanIntegration:
    def test_fixed_plan_resilient_beats_naive_under_loss(self, base):
        schedule = FaultSchedule(
            (TransferLoss(0.0, 1e9, loss_probability=0.5),)
        )
        env = schedule.install(make_env())
        naive = FixedPlan(None, base)
        resilient = FixedPlan(
            None, base, policy=OffloadPolicy(max_retries=3, backoff_base_ms=5.0)
        )
        rng_a = np.random.default_rng(123)
        rng_b = np.random.default_rng(123)
        naive_outcomes = [naive.execute(float(i) * 5000.0, env, rng_a) for i in range(20)]
        resilient_outcomes = [
            resilient.execute(float(i) * 5000.0, env, rng_b) for i in range(20)
        ]
        assert sum(o.fell_back for o in resilient_outcomes) < sum(
            o.fell_back for o in naive_outcomes
        )

    def test_outcome_carries_retry_telemetry(self, base):
        schedule = FaultSchedule((TransferLoss(0.0, 1.0, loss_probability=1.0),))
        env = schedule.install(make_env())
        plan = FixedPlan(
            None, base, policy=OffloadPolicy(max_retries=2, backoff_base_ms=100.0)
        )
        outcome = plan.execute(0.0, env, np.random.default_rng(0))
        assert outcome.retries == 1
        assert not outcome.deadline_missed
        assert not outcome.degraded

    def test_plans_without_policy_unchanged(self, base):
        """The default path is byte-for-byte the historical naive engine."""
        env = make_env(outages=[(0.0, 10_000.0)])
        outcome = FixedPlan(None, base).execute(0.0, env, np.random.default_rng(0))
        expected = 200.0 + XIAOMI_MI_6X.model_latency_ms(base)
        assert outcome.latency_ms == pytest.approx(expected)
        assert outcome.retries == 0
        assert not outcome.degraded


class TestSessionResilience:
    def make_session(self, env, policy=None, breaker=None):
        return InferenceSession(
            make_split_tree(vgg11()),
            env,
            seed=0,
            policy=policy,
            breaker=breaker,
        )

    def test_session_stats_expose_resilience_telemetry(self):
        env = make_env(outages=[(2_000.0, 30_000.0)])
        session = self.make_session(
            env,
            policy=OffloadPolicy(max_retries=1, probe_timeout_ms=50.0),
            breaker=CircuitBreaker(
                CircuitBreakerConfig(failure_threshold=2, cooldown_ms=5_000.0)
            ),
        )
        for i in range(12):
            session.infer(at_ms=float(i) * 3_000.0)
        stats = session.stats()
        assert stats.fallback_rate > 0
        assert stats.degraded_rate > 0  # the open breaker pinned requests
        assert stats.breaker_state in (CLOSED, OPEN, HALF_OPEN)
        assert stats.breaker_transitions.get("closed->open", 0) >= 1
        assert 0.0 <= stats.deadline_miss_rate <= 1.0

    def test_session_breaker_full_cycle_over_outage(self):
        """closed -> open during the outage, half-open probe, closed after."""
        env = make_env(outages=[(0.0, 10_000.0)])
        session = self.make_session(
            env,
            policy=OffloadPolicy(max_retries=0, probe_timeout_ms=50.0),
            breaker=CircuitBreaker(
                CircuitBreakerConfig(failure_threshold=2, cooldown_ms=4_000.0)
            ),
        )
        for i in range(10):
            session.infer(at_ms=float(i) * 2_000.0)
        stats = session.stats()
        assert stats.breaker_state == CLOSED  # recovered after the window
        counts = stats.breaker_transitions
        assert counts.get("closed->open", 0) >= 1
        assert counts.get("open->half_open", 0) >= 1
        assert counts.get("half_open->closed", 0) >= 1

    def test_reset_resets_breaker(self):
        env = make_env()
        session = self.make_session(env, policy=OffloadPolicy())
        session.breaker.record_failure(0.0)
        session.infer()
        session.reset()
        assert session.breaker.state == CLOSED
        assert session.breaker.transitions == []
