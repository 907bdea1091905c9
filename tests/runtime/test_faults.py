"""Fault-injection subsystem: schedules, lossy channels, env installation."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accuracy import FixedAccuracy
from repro.latency import CLOUD_SERVER, XIAOMI_MI_6X
from repro.latency.transfer import WIFI_TRANSFER
from repro.mdp import PAPER_REWARD
from repro.network.channel import Channel, LossyChannel
from repro.network.traces import constant_trace
from repro.nn.zoo import vgg11
from repro.runtime.engine import FixedPlan, RuntimeEnvironment
from repro.runtime.faults import (
    BandwidthCollapse,
    CloudBrownout,
    CloudOutage,
    FaultSchedule,
    ProbeBlackout,
    TransferLoss,
)


_KINDS = {
    "outage": CloudOutage,
    "brownout": CloudBrownout,
    "collapse": BandwidthCollapse,
    "loss": TransferLoss,
    "blackout": ProbeBlackout,
}


def _param(kind, u):
    """The kind's own parameter, drawn from ``u`` in [0, 1]."""
    if kind == "brownout":
        return {"latency_multiplier": 1.0 + 3.0 * u}
    if kind == "collapse":
        return {"slowdown": 1.0 + 7.0 * u}
    if kind == "loss":
        return {"loss_probability": u}
    return {}


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


class TestFaultEvents:
    def test_window_half_open(self):
        event = CloudOutage(100.0, 200.0)
        assert not event.active(99.9)
        assert event.active(100.0)
        assert event.active(199.9)
        assert not event.active(200.0)

    def test_zero_length_window_never_active(self):
        event = CloudOutage(100.0, 100.0)
        assert not event.active(100.0)

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            CloudOutage(200.0, 100.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            CloudOutage(-1.0, 100.0)

    def test_brownout_multiplier_validated(self):
        with pytest.raises(ValueError, match="latency_multiplier"):
            CloudBrownout(0.0, 10.0, latency_multiplier=0.5)

    def test_collapse_slowdown_validated(self):
        with pytest.raises(ValueError, match="slowdown"):
            BandwidthCollapse(0.0, 10.0, slowdown=0.9)

    def test_loss_probability_validated(self):
        with pytest.raises(ValueError, match="loss_probability"):
            TransferLoss(0.0, 10.0, loss_probability=1.5)


class TestFaultSchedule:
    def test_queries_outside_windows(self):
        schedule = FaultSchedule(
            (
                CloudOutage(100.0, 200.0),
                CloudBrownout(300.0, 400.0, latency_multiplier=2.0),
                BandwidthCollapse(500.0, 600.0, slowdown=4.0),
                TransferLoss(700.0, 800.0, loss_probability=0.5),
                ProbeBlackout(900.0, 1000.0),
            )
        )
        assert not schedule.outage_at(50.0)
        assert schedule.brownout_multiplier_at(50.0) == pytest.approx(1.0)
        assert schedule.slowdown_at(50.0) == pytest.approx(1.0)
        assert schedule.loss_probability_at(50.0) == pytest.approx(0.0)
        assert not schedule.probe_blackout_at(50.0)

    def test_queries_inside_windows(self):
        schedule = FaultSchedule(
            (
                CloudOutage(100.0, 200.0),
                CloudBrownout(100.0, 200.0, latency_multiplier=2.0),
                BandwidthCollapse(100.0, 200.0, slowdown=4.0),
                TransferLoss(100.0, 200.0, loss_probability=0.5),
                ProbeBlackout(100.0, 200.0),
            )
        )
        assert schedule.outage_at(150.0)
        assert schedule.brownout_multiplier_at(150.0) == pytest.approx(2.0)
        assert schedule.slowdown_at(150.0) == pytest.approx(4.0)
        assert schedule.loss_probability_at(150.0) == pytest.approx(0.5)
        assert schedule.probe_blackout_at(150.0)

    def test_overlapping_events_compose(self):
        schedule = FaultSchedule(
            (
                CloudBrownout(0.0, 100.0, latency_multiplier=2.0),
                CloudBrownout(0.0, 100.0, latency_multiplier=3.0),
                TransferLoss(0.0, 100.0, loss_probability=0.5),
                TransferLoss(0.0, 100.0, loss_probability=0.5),
            )
        )
        assert schedule.brownout_multiplier_at(50.0) == pytest.approx(6.0)
        # Independent losses: 1 - (1 - .5)(1 - .5) = .75
        assert schedule.loss_probability_at(50.0) == pytest.approx(0.75)

    @settings(max_examples=200, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.sampled_from(list(_KINDS)),
                st.floats(0.0, 1_000.0),
                st.floats(0.0, 600.0),
                st.floats(0.0, 1.0),
            ),
            max_size=12,
        ),
        times=st.lists(st.floats(0.0, 1_700.0), min_size=1, max_size=20),
    )
    def test_lookups_match_full_scan(self, events, times):
        """Per-kind lookups agree with a scan of every event, on random
        overlapping schedules (products compose in schedule order)."""
        schedule = FaultSchedule(
            tuple(
                _KINDS[kind](start, start + length, **_param(kind, u))
                for kind, start, length, u in events
            )
        )
        for t_ms in times + [e.start_ms for e in schedule.events]:
            assert schedule.outage_at(t_ms) == any(
                isinstance(e, CloudOutage) and e.active(t_ms) for e in schedule.events
            )
            assert schedule.probe_blackout_at(t_ms) == any(
                isinstance(e, ProbeBlackout) and e.active(t_ms) for e in schedule.events
            )
            multiplier = slowdown = survival = 1.0
            for e in schedule.events:
                if not e.active(t_ms):
                    continue
                if isinstance(e, CloudBrownout):
                    multiplier *= e.latency_multiplier
                if isinstance(e, BandwidthCollapse):
                    slowdown *= e.slowdown
                if isinstance(e, TransferLoss):
                    survival *= 1.0 - e.loss_probability
            assert schedule.brownout_multiplier_at(t_ms) == multiplier
            assert schedule.slowdown_at(t_ms) == slowdown
            assert schedule.loss_probability_at(t_ms) == 1.0 - survival

    def test_lookups_validate_time(self):
        schedule = FaultSchedule((CloudOutage(0.0, 10.0),))
        for lookup in (
            schedule.outage_at,
            schedule.brownout_multiplier_at,
            schedule.slowdown_at,
            schedule.loss_probability_at,
            schedule.probe_blackout_at,
        ):
            with pytest.raises(ValueError, match="t_ms"):
                lookup(-1.0)
            with pytest.raises(ValueError, match="t_ms"):
                lookup(float("nan"))

    def test_equality_repr_and_pickle_see_only_events(self):
        events = (CloudOutage(0.0, 10.0), TransferLoss(5.0, 20.0, loss_probability=0.3))
        schedule = FaultSchedule(events)
        assert schedule == FaultSchedule(events)
        assert hash(schedule) == hash(FaultSchedule(events))
        assert repr(schedule) == f"FaultSchedule(events={events!r})"
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone == schedule
        assert clone.loss_probability_at(7.0) == schedule.loss_probability_at(7.0)
        shorter = dataclasses.replace(schedule, events=events[:1])
        assert shorter.loss_probability_at(7.0) == 0.0
        assert shorter.outage_at(7.0)

    def test_non_event_entries_rejected(self):
        with pytest.raises(TypeError, match="FaultEvents"):
            FaultSchedule(((0.0, 10.0),))

    def test_install_preserves_every_env_field(self):
        """The fieldify()-class bug: copies must not drop env fields."""
        env = make_env(
            cloud_outages=((5.0, 10.0),),
            outage_detect_ms=123.0,
        )
        schedule = FaultSchedule((CloudOutage(0.0, 1.0),))
        installed = schedule.install(env)
        assert installed.cloud_outages == ((5.0, 10.0),)
        assert installed.outage_detect_ms == 123.0
        assert installed.faults is schedule
        assert isinstance(installed.channel, LossyChannel)
        # Every other field is carried over verbatim.
        for f in dataclasses.fields(RuntimeEnvironment):
            if f.name in ("channel", "faults"):
                continue
            assert getattr(installed, f.name) is getattr(env, f.name), f.name


class TestEnvironmentFaultAwareness:
    def test_schedule_outage_blocks_cloud(self):
        env = make_env(faults=FaultSchedule((CloudOutage(100.0, 200.0),)))
        assert env.cloud_available(50.0)
        assert not env.cloud_available(150.0)
        assert env.cloud_available(200.0)

    def test_brownout_stretches_cloud_compute(self):
        base = vgg11()
        env = make_env(
            faults=FaultSchedule(
                (CloudBrownout(0.0, 1000.0, latency_multiplier=3.0),)
            )
        )
        rng = np.random.default_rng(0)
        clean_ms = env.cloud_compute_ms(base, rng)
        slowed_ms = env.cloud_compute_ms(base, rng, at_ms=500.0)
        after_ms = env.cloud_compute_ms(base, rng, at_ms=2000.0)
        assert slowed_ms == pytest.approx(3.0 * clean_ms)
        assert after_ms == pytest.approx(clean_ms)

    def test_probe_blackout_floors_measurement(self):
        env = make_env(faults=FaultSchedule((ProbeBlackout(0.0, 1000.0),)))
        rng = np.random.default_rng(0)
        assert env.probe_bandwidth(500.0, rng) == pytest.approx(0.1)
        assert env.probe_bandwidth(2000.0, rng) == pytest.approx(10.0)

    def test_collapse_scales_probe(self):
        env = make_env(
            faults=FaultSchedule((BandwidthCollapse(0.0, 1000.0, slowdown=5.0),))
        )
        rng = np.random.default_rng(0)
        assert env.probe_bandwidth(500.0, rng) == pytest.approx(2.0)


class TestLossyChannel:
    def make_channels(self, loss_p=1.0):
        trace = constant_trace(10.0, duration_s=60.0)
        inner = Channel(trace, WIFI_TRANSFER)
        lossy = LossyChannel(
            inner,
            loss_probability_at=lambda t_ms: loss_p,
            slowdown_at=lambda t_ms: 1.0,
        )
        return inner, lossy

    def test_certain_loss_fails_mid_flight(self):
        inner, lossy = self.make_channels(loss_p=1.0)
        rng = np.random.default_rng(0)
        nominal = inner.transfer_time_ms(100_000, 0.0)
        attempt = lossy.attempt(100_000, 0.0, rng)
        assert not attempt.ok
        # The stall is a 10-90% fraction of the nominal transfer.
        assert 0.1 * nominal <= attempt.elapsed_ms <= 0.9 * nominal

    def test_zero_loss_matches_clean_channel(self):
        inner, lossy = self.make_channels(loss_p=0.0)
        rng = np.random.default_rng(0)
        attempt = lossy.attempt(100_000, 0.0, rng)
        assert attempt.ok
        assert attempt.elapsed_ms == pytest.approx(
            inner.transfer_time_ms(100_000, 0.0)
        )
        # No loss and no payload means no RNG draws at all.
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_slowdown_stretches_transfer(self):
        trace = constant_trace(10.0, duration_s=60.0)
        inner = Channel(trace, WIFI_TRANSFER)
        lossy = LossyChannel(inner, slowdown_at=lambda t_ms: 4.0)
        assert lossy.transfer_time_ms(100_000, 0.0) == pytest.approx(
            4.0 * inner.transfer_time_ms(100_000, 0.0)
        )

    def test_deterministic_with_same_seed(self):
        _, lossy = self.make_channels(loss_p=0.4)
        results_a = [
            lossy.attempt(50_000, float(i) * 10.0, np.random.default_rng(7))
            for i in range(20)
        ]
        results_b = [
            lossy.attempt(50_000, float(i) * 10.0, np.random.default_rng(7))
            for i in range(20)
        ]
        assert results_a == results_b

    def test_loss_rate_tracks_probability(self):
        _, lossy = self.make_channels(loss_p=0.3)
        rng = np.random.default_rng(3)
        failures = sum(
            1 for _ in range(500) if not lossy.attempt(50_000, 0.0, rng).ok
        )
        assert 0.2 < failures / 500 < 0.4


class TestFaultedExecution:
    def test_loss_forces_fallback_in_naive_plan(self):
        base = vgg11()
        env = make_env()
        schedule = FaultSchedule((TransferLoss(0.0, 60_000.0, loss_probability=1.0),))
        faulted = schedule.install(env)
        outcome = FixedPlan(None, base).execute(0.0, faulted, np.random.default_rng(0))
        assert outcome.fell_back
        assert not outcome.offloaded
        # The stall plus the detect window plus the local cloud half.
        assert outcome.latency_ms > env.outage_detect_ms

    def test_clean_schedule_is_noop(self):
        base = vgg11()
        env = make_env()
        faulted = FaultSchedule(()).install(env)
        clean = FixedPlan(None, base).execute(0.0, env, np.random.default_rng(0))
        injected = FixedPlan(None, base).execute(
            0.0, faulted, np.random.default_rng(0)
        )
        assert clean == injected


class TestFaultErrorHierarchy:
    def test_leaves_are_fault_errors(self):
        from repro.runtime.faults import (
            CloudUnreachableError,
            FaultError,
            ProbeBlackoutError,
            TransferAbortedError,
        )

        for leaf in (
            CloudUnreachableError,
            TransferAbortedError,
            ProbeBlackoutError,
        ):
            error = leaf("window closed", t_ms=1_250.0)
            assert isinstance(error, FaultError)
            assert isinstance(error, RuntimeError)
            assert error.t_ms == 1250.0

    def test_t_ms_defaults_to_zero(self):
        from repro.runtime.faults import FaultError

        assert FaultError("no clock").t_ms == 0.0

    def test_exported_from_runtime(self):
        import repro.runtime as runtime

        assert runtime.FaultError is not None
        assert issubclass(runtime.TransferAbortedError, runtime.FaultError)


class _FlakyPlan:
    """Raises a typed fault on chosen request indices, else delegates."""

    def __init__(self, inner, faulty_indices):
        self.inner = inner
        self.faulty = set(faulty_indices)
        self.calls = 0
        self.degraded_envs = []

    def execute(self, start_ms, env, rng):
        index = self.calls
        self.calls += 1
        if index in self.faulty:
            from repro.runtime.faults import TransferAbortedError

            self.faulty.discard(index)  # the degraded retry must succeed
            raise TransferAbortedError("died mid-flight", t_ms=start_ms)
        if not env.cloud_available(0.0):
            self.degraded_envs.append(env)
        return self.inner.execute(start_ms, env, rng)


class TestEmulationFaultBoundary:
    def _plan(self):
        spec = vgg11()
        return FixedPlan(edge_spec=spec, cloud_spec=None)

    def test_typed_fault_absorbed_and_counted(self):
        from repro.runtime.emulator import run_emulation

        flaky = _FlakyPlan(self._plan(), faulty_indices=[1])
        result = run_emulation(flaky, make_env(), num_requests=4, seed=0)
        # Regression: a single faulted request used to abort the whole
        # emulation; now it is counted and re-run device-only.
        assert len(result.outcomes) == 4
        assert result.swallowed_faults == {"TransferAbortedError": 1}
        # The retry saw a cloud-unavailable environment.
        assert len(flaky.degraded_envs) == 1

    def test_non_fault_errors_still_propagate(self):
        from repro.runtime.emulator import run_emulation

        class BuggyPlan:
            def execute(self, start_ms, env, rng):
                raise ZeroDivisionError("a real bug")

        with pytest.raises(ZeroDivisionError):
            run_emulation(BuggyPlan(), make_env(), num_requests=2, seed=0)

    def test_clean_run_reports_no_faults(self):
        from repro.runtime.emulator import run_emulation

        result = run_emulation(self._plan(), make_env(), num_requests=2, seed=0)
        assert result.swallowed_faults == {}
