"""Declarative fault injection for the online runtime.

The paper's premise is a "dynamically changing network environment"
(Sec. I, Fig. 1), but clean traces only exercise the *gradual* half of
that story. This module injects the abrupt half — the failure modes the
edge-cloud cooperation literature (Xu et al. survey; Zhang et al.,
*Edge-Cloud Cooperation for DNN Inference via RL and SL*) answers with
retries and graceful degradation:

- :class:`CloudOutage` — the cloud is unreachable for a window;
- :class:`CloudBrownout` — the cloud answers, but slowly (a latency
  multiplier on cloud compute: queueing, thermal throttling, a noisy
  neighbour);
- :class:`BandwidthCollapse` — the link stays up but transfers crawl;
- :class:`TransferLoss` — each transfer started in the window dies
  mid-flight with some probability;
- :class:`ProbeBlackout` — bandwidth measurement stops working (the
  probe side-channel is down), so fork decisions fly blind.

Alongside the declarative *events* (data: windows on the emulation
clock) lives the typed *exception* hierarchy — :class:`FaultError` and
its leaves :class:`CloudUnreachableError`, :class:`TransferAbortedError`
and :class:`ProbeBlackoutError` — the sanctioned way for components
below the serving boundary (predictors, probe callbacks, custom plans)
to signal an environmental failure. The session boundary catches
exactly this hierarchy (never broad ``Exception``), records what it
swallowed, and degrades; see
:class:`~repro.runtime.session.InferenceSession`.

A :class:`FaultSchedule` composes any number of events and installs
itself onto a :class:`~repro.runtime.engine.RuntimeEnvironment` with
:meth:`FaultSchedule.install`, wrapping the transfer channel in a
:class:`~repro.network.channel.LossyChannel`. All stochastic behaviour
draws from the seeded generator the engine already threads through, so a
chaos replay is reproducible bit-for-bit.

All windows share the runtime's half-open semantics: an event is active
for ``start_ms <= t < end_ms``, and a zero-length window is a no-op.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..contracts import require_non_negative, require_unit_interval
from ..network.channel import LossyChannel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .engine import RuntimeEnvironment


class FaultError(RuntimeError):
    """Base of the typed fault hierarchy — an *environmental* failure.

    Components below the serving boundary (bandwidth predictors, probe
    callbacks, custom plans) raise these — never bare ``RuntimeError`` —
    to signal that the edge-cloud environment failed, not the code. The
    :class:`~repro.runtime.session.InferenceSession` boundary catches
    exactly this hierarchy (nothing broader), records the swallowed
    fault on :class:`~repro.runtime.session.SessionStats`, and degrades
    the request instead of crashing the serving loop. Anything outside
    the hierarchy propagates: a genuine bug must stay loud.
    """

    def __init__(self, message: str, t_ms: float = 0.0) -> None:
        super().__init__(message)
        #: Simulated-clock time the fault surfaced at (best effort).
        self.t_ms = float(require_non_negative(t_ms, "t_ms"))


class CloudUnreachableError(FaultError):
    """The cloud could not be reached at all (outage, dead link)."""


class TransferAbortedError(FaultError):
    """A transfer died mid-flight and no retry budget remained."""


class ProbeBlackoutError(FaultError):
    """The bandwidth measurement side-channel is down; no usable estimate."""


@dataclass(frozen=True)
class FaultEvent:
    """A fault active over the half-open window ``[start_ms, end_ms)``."""

    start_ms: float
    end_ms: float

    def __post_init__(self) -> None:
        require_non_negative(self.start_ms, "start_ms")
        require_non_negative(self.end_ms, "end_ms")
        if self.end_ms < self.start_ms:
            raise ValueError(
                f"fault window ends before it starts: "
                f"[{self.start_ms}, {self.end_ms})"
            )

    def active(self, t_ms: float) -> bool:
        """Half-open containment; zero-length windows are never active."""
        require_non_negative(t_ms, "t_ms")
        return self.start_ms <= t_ms < self.end_ms


@dataclass(frozen=True)
class CloudOutage(FaultEvent):
    """The cloud is unreachable: offloads fail until the window closes."""


@dataclass(frozen=True)
class CloudBrownout(FaultEvent):
    """The cloud still answers, but ``latency_multiplier`` times slower."""

    latency_multiplier: float = 3.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.latency_multiplier < 1.0:
            raise ValueError(
                f"latency_multiplier must be >= 1, got {self.latency_multiplier!r}"
            )


@dataclass(frozen=True)
class BandwidthCollapse(FaultEvent):
    """Transfers started in the window take ``slowdown`` times longer."""

    slowdown: float = 5.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1, got {self.slowdown!r}")


@dataclass(frozen=True)
class TransferLoss(FaultEvent):
    """Each transfer started in the window fails with ``loss_probability``."""

    loss_probability: float = 0.1

    def __post_init__(self) -> None:
        super().__post_init__()
        require_unit_interval(self.loss_probability, "loss_probability")


@dataclass(frozen=True)
class ProbeBlackout(FaultEvent):
    """Bandwidth probes return nothing useful: the engine flies blind."""


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable composition of fault events over the emulation clock.

    Overlapping events compose the way independent faults would: latency
    multipliers and slowdowns multiply, loss probabilities combine as
    independent failure chances (``1 - prod(1 - p)``).

    The events of each kind are grouped once, in schedule order (which
    fixes the order multipliers compose in), so a lookup scans only its
    own kind.
    """

    events: Tuple[FaultEvent, ...] = ()
    _by_kind: Dict[type, Tuple[FaultEvent, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise TypeError(
                    f"fault schedule entries must be FaultEvents, got {event!r}"
                )
        kinds = (CloudOutage, CloudBrownout, BandwidthCollapse, TransferLoss, ProbeBlackout)
        object.__setattr__(
            self,
            "_by_kind",
            {kind: tuple(e for e in self.events if isinstance(e, kind)) for kind in kinds},
        )

    def _active(self, kind: type, t_ms: float):
        """Events of ``kind`` active at ``t_ms``; callers validated ``t_ms``."""
        return [e for e in self._by_kind[kind] if e.start_ms <= t_ms < e.end_ms]

    def outage_at(self, t_ms: float) -> bool:
        require_non_negative(t_ms, "t_ms")
        return bool(self._active(CloudOutage, t_ms))

    def brownout_multiplier_at(self, t_ms: float) -> float:
        require_non_negative(t_ms, "t_ms")
        multiplier = 1.0
        for event in self._active(CloudBrownout, t_ms):
            multiplier *= event.latency_multiplier
        return multiplier

    def slowdown_at(self, t_ms: float) -> float:
        require_non_negative(t_ms, "t_ms")
        slowdown = 1.0
        for event in self._active(BandwidthCollapse, t_ms):
            slowdown *= event.slowdown
        return slowdown

    def loss_probability_at(self, t_ms: float) -> float:
        require_non_negative(t_ms, "t_ms")
        survival = 1.0
        for event in self._active(TransferLoss, t_ms):
            survival *= 1.0 - event.loss_probability
        return 1.0 - survival

    def probe_blackout_at(self, t_ms: float) -> bool:
        require_non_negative(t_ms, "t_ms")
        return bool(self._active(ProbeBlackout, t_ms))

    def install(self, env: "RuntimeEnvironment") -> "RuntimeEnvironment":
        """A copy of ``env`` with this schedule's faults wired in.

        The transfer channel is wrapped in a :class:`LossyChannel` bound to
        this schedule's loss/slowdown clocks; every other environment field
        — including any pre-existing ``cloud_outages`` windows — survives
        the copy via :func:`dataclasses.replace`.
        """
        lossy = LossyChannel(
            env.channel,
            loss_probability_at=self.loss_probability_at,
            slowdown_at=self.slowdown_at,
        )
        return dataclasses.replace(env, channel=lossy, faults=self)


# ---------------------------------------------------------------------------
# Pool-level chaos — process faults, keyed on (task, attempt), not the
# emulation clock. The :class:`~repro.runtime.pool.FaultTolerantPool`
# injects these inside its worker processes so the recovery machinery
# (crash detection, timeout kill, retry, quarantine) is exercised
# deterministically: the same schedule always hits the same attempts.
# Attempts the pool runs in-process, having no worker, see no chaos.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoolFaultEvent:
    """A process fault targeting one attempt of one pool task.

    ``attempt`` counts from 0 (the first execution); a retry of the same
    task arrives as attempt 1, so a fault pinned to attempt 0 models a
    transient failure the retry recovers from, while faults on every
    attempt model a poison task headed for quarantine.
    """

    task_id: str
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {self.attempt}")


@dataclass(frozen=True)
class WorkerCrash(PoolFaultEvent):
    """The worker process dies abruptly (SIGKILL/OOM) mid-task."""

    exit_code: int = 13


@dataclass(frozen=True)
class WorkerHang(PoolFaultEvent):
    """The worker wedges on the task until the pool's timeout kills it."""

    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.hang_s <= 0:
            raise ValueError(f"hang_s must be positive, got {self.hang_s}")


@dataclass(frozen=True)
class PoolChaos:
    """An immutable schedule of pool faults, matched per (task, attempt).

    Picklable by construction — the schedule rides into every worker
    process at startup. At most one event fires per attempt; declaring
    two events for the same (task_id, attempt) is rejected up front
    rather than silently picking one.
    """

    events: Tuple[PoolFaultEvent, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for event in self.events:
            if not isinstance(event, PoolFaultEvent):
                raise TypeError(
                    f"pool chaos entries must be PoolFaultEvents, got {event!r}"
                )
            key = (event.task_id, event.attempt)
            if key in seen:
                raise ValueError(
                    f"duplicate pool fault for task {event.task_id!r} "
                    f"attempt {event.attempt}"
                )
            seen.add(key)

    def event_for(self, task_id: str, attempt: int) -> Optional[PoolFaultEvent]:
        """The fault scheduled for this attempt, or None."""
        for event in self.events:
            if event.task_id == task_id and event.attempt == attempt:
                return event
        return None
