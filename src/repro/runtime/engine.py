"""Online inference execution over a live bandwidth trace.

Two kinds of plan exist at runtime:

- a **fixed plan** (Dynamic DNN Surgery, the optimal branch): edge half,
  optional transfer, cloud half — decided once before inference;
- a **tree plan** (the context-aware model tree): before each block the
  engine measures the current bandwidth, matches it to a fork, and follows
  that child — possibly deciding mid-inference to ship the rest to the
  cloud (Alg. 2 / Sec. IV Overview).

Everything fixed once a plan is deployed is compiled once by
:mod:`repro.model.treepath`: each block's non-empty edge spec, and per
terminal the composed edge prefix, the cloud spec, the payload bytes and
the full spec. :func:`admit_plan` verifies a tree plan from those same
records and keeps them on the plan; a plan never admitted compiles on
its first ``execute``. A fixed plan compiles to a one-leaf tree, so both
plans run one walk, :func:`_walk`, which per request only draws noise,
probes, matches forks, resolves the offload and builds the outcome.

Plans are executed against a :class:`RuntimeEnvironment` that owns the
bandwidth trace, the transfer channel, the device profiles, and the
accuracy evaluator. Latencies advance a simulated clock, so a bandwidth dip
during an early block is *visible* to later fork decisions — the temporal
effect the paper's introduction motivates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Protocol, Tuple

import numpy as np

from ..accuracy.base import AccuracyEvaluator
from ..analysis import compile_and_verify_tree, raise_on_error, verify_fixed_plan
from ..contracts import require_non_negative
from ..latency.devices import DeviceProfile
from ..mdp.reward import RewardConfig
from ..model.spec import ModelSpec
from ..model.treepath import CompiledTree, PathNode, compile_split, compile_tree
from ..network.channel import Channel, TransferAttempt
from ..network.traces import BandwidthTrace
from ..search.compose import match_fork
from ..search.tree import ModelTree
from .resilience import CircuitBreaker, OffloadPolicy, resolve_offload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .faults import FaultSchedule


@dataclass
class RuntimeEnvironment:
    """Everything an executing inference interacts with."""

    edge: DeviceProfile
    cloud: DeviceProfile
    trace: BandwidthTrace
    channel: Channel
    accuracy: AccuracyEvaluator
    reward: RewardConfig
    compute_noise: Callable[[np.random.Generator], float] = lambda rng: 1.0
    transfer_noise: Callable[[np.random.Generator], float] = lambda rng: 1.0
    bandwidth_probe_noise: Callable[[float, float, np.random.Generator], float] = (
        lambda true_mbps, t_ms, rng: true_mbps
    )
    #: Cloud-outage windows [(start_ms, end_ms), ...] — failure injection.
    #: An offload attempted inside a window fails; the engine pays
    #: ``outage_detect_ms`` to notice and falls back to finishing the
    #: inference on the device (the device keeps the full base weights).
    #: Windows are half-open (``start <= t < end``); a zero-length or
    #: inverted window never matches.
    cloud_outages: Tuple[Tuple[float, float], ...] = ()
    outage_detect_ms: float = 200.0
    #: Optional declarative fault schedule (outages, brownouts, transfer
    #: loss, probe blackouts). Install one with ``FaultSchedule.install``.
    faults: Optional["FaultSchedule"] = None

    def cloud_available(self, t_ms: float) -> bool:
        """Half-open window semantics: down for ``start <= t_ms < end``."""
        require_non_negative(t_ms, "t_ms")
        if any(
            start <= t_ms < end for start, end in self.cloud_outages if end > start
        ):
            return False
        return self.faults is None or not self.faults.outage_at(t_ms)

    def edge_compute_ms(
        self, spec: Optional[ModelSpec], rng: np.random.Generator
    ) -> float:
        if spec is None or not len(spec):
            return 0.0
        return self.edge.model_latency_ms(spec) * self.compute_noise(rng)

    def cloud_compute_ms(
        self,
        spec: Optional[ModelSpec],
        rng: np.random.Generator,
        at_ms: Optional[float] = None,
    ) -> float:
        """Cloud compute time; a brownout active at ``at_ms`` stretches it."""
        if spec is None or not len(spec):
            return 0.0
        base_ms = self.cloud.model_latency_ms(spec) * self.compute_noise(rng)
        if at_ms is not None and self.faults is not None:
            require_non_negative(at_ms, "at_ms")
            base_ms *= self.faults.brownout_multiplier_at(at_ms)
        return base_ms

    def transfer_time_ms(
        self, size_bytes: float, start_ms: float, rng: np.random.Generator
    ) -> float:
        """Trace-integrated transfer time plus field-mode protocol noise."""
        require_non_negative(size_bytes, "size_bytes")
        require_non_negative(start_ms, "start_ms")
        return self.channel.transfer_time_ms(size_bytes, start_ms) * (
            self.transfer_noise(rng)
        )

    def attempt_transfer(
        self, size_bytes: float, start_ms: float, rng: np.random.Generator
    ) -> TransferAttempt:
        """One transfer attempt — may fail mid-flight on a lossy channel."""
        require_non_negative(size_bytes, "size_bytes")
        require_non_negative(start_ms, "start_ms")
        attempt = self.channel.attempt(size_bytes, start_ms, rng)
        return TransferAttempt(
            ok=attempt.ok,
            elapsed_ms=attempt.elapsed_ms * self.transfer_noise(rng),
        )

    def probe_bandwidth(self, t_ms: float, rng: np.random.Generator) -> float:
        """What the engine *believes* the bandwidth is at time ``t_ms``.

        During a probe blackout the measurement side-channel is down and
        the probe returns the 0.1 Mbps floor — the engine assumes the
        worst. A bandwidth collapse scales what the probe sees, so fork
        decisions react to it like any other dip.
        """
        require_non_negative(t_ms, "t_ms")
        if self.faults is not None and self.faults.probe_blackout_at(t_ms):
            return 0.1
        true_mbps = self.trace.at(t_ms / 1e3)
        if self.faults is not None:
            true_mbps /= max(1.0, self.faults.slowdown_at(t_ms))
        return max(0.1, self.bandwidth_probe_noise(true_mbps, t_ms, rng))


@dataclass(frozen=True)
class InferenceOutcome:
    """One executed inference request."""

    start_ms: float
    latency_ms: float
    accuracy: float
    reward: float
    offloaded: bool
    edge_ms: float
    transfer_ms: float
    cloud_ms: float
    fork_choices: Tuple[int, ...] = ()
    fell_back: bool = False  # a failed offload forced an on-device fallback
    retries: int = 0  # offload re-attempts beyond the first try
    deadline_missed: bool = False  # completion overran the policy deadline
    degraded: bool = False  # breaker was open: request pinned edge-only


class InferencePlan(Protocol):
    """Anything executable by the emulator."""

    def execute(
        self, start_ms: float, env: RuntimeEnvironment, rng: np.random.Generator
    ) -> InferenceOutcome: ...


def admit_plan(plan: "InferencePlan", base: Optional[ModelSpec] = None) -> None:
    """Statically verify a plan before the engine will execute it.

    Admission-time rejection (``VerificationError``) beats discovering a
    malformed split mid-inference: every :class:`FixedPlan` boundary and
    every runtime-reachable tree path is checked without running anything.
    A tree plan keeps the records its verification compiled, so it never
    compiles again. Plans of unknown types pass through (the Protocol is
    open).
    """
    if isinstance(plan, FixedPlan):
        raise_on_error(verify_fixed_plan(plan, base=base), context="fixed plan")
    elif isinstance(plan, TreePlan):
        compiled, diagnostics = compile_and_verify_tree(plan.tree)
        raise_on_error(diagnostics, context="tree plan")
        plan.load(compiled)


def _walk(
    root: PathNode,
    bandwidth_types: Tuple[float, ...],
    policy: Optional[OffloadPolicy],
    breaker: Optional[CircuitBreaker],
    start_ms: float,
    env: RuntimeEnvironment,
    rng: np.random.Generator,
) -> InferenceOutcome:
    """Execute one request down a compiled plan (Alg. 2), block by block.

    Per request this only draws compute noise per block, probes and
    matches a fork per level, resolves the offload and scores the leaf's
    full spec; device ms, probes and accuracy are looked up on ``env``
    each call, because the environment differs between calls.
    """
    clock = start_ms
    node = root
    edge_ms = 0.0
    forks: List[int] = []
    while True:
        if node.edge_spec is not None:
            block_ms = env.edge.model_latency_ms(node.edge_spec) * env.compute_noise(rng)
            edge_ms += block_ms
            clock += block_ms
        leaf = node.leaf
        if leaf is not None:
            break
        fork = match_fork(env.probe_bandwidth(clock, rng), bandwidth_types)
        children = node.children
        if fork >= len(children):
            fork = len(children) - 1
        forks.append(fork)
        node = children[fork]
    offload = resolve_offload(
        env, rng, clock, leaf.cloud_spec, leaf.payload_bytes,
        policy=policy, breaker=breaker,
    )
    accuracy = env.accuracy.evaluate(leaf.full_spec)
    latency = offload.clock_ms - start_ms
    return InferenceOutcome(
        start_ms=start_ms,
        latency_ms=latency,
        accuracy=accuracy,
        reward=env.reward.reward(accuracy, latency),
        offloaded=offload.offloaded,
        edge_ms=edge_ms + offload.fallback_edge_ms,
        transfer_ms=offload.transfer_ms,
        cloud_ms=offload.cloud_ms,
        fork_choices=tuple(forks),
        fell_back=offload.fell_back,
        retries=offload.retries,
        deadline_missed=offload.deadline_missed,
        degraded=offload.degraded,
    )


@dataclass(frozen=True)
class FixedPlan:
    """A once-for-all (edge, cloud) split — surgery and optimal branch.

    ``policy``/``breaker`` switch the offload path from the naive
    one-shot fallback to the resilient state machine of
    :mod:`repro.runtime.resilience`; the breaker is deliberately excluded
    from equality (it is mutable session state, not part of the split).
    The first ``execute`` compiles the split into the one-leaf case of
    :class:`TreePlan`'s walk.
    """

    edge_spec: Optional[ModelSpec]
    cloud_spec: Optional[ModelSpec]
    policy: Optional[OffloadPolicy] = None
    breaker: Optional[CircuitBreaker] = field(default=None, compare=False)
    _root: Optional[PathNode] = field(default=None, init=False, compare=False, repr=False)

    def execute(
        self, start_ms: float, env: RuntimeEnvironment, rng: np.random.Generator
    ) -> InferenceOutcome:
        require_non_negative(start_ms, "start_ms")
        if self._root is None:
            object.__setattr__(self, "_root", compile_split(self.edge_spec, self.cloud_spec))
        return _walk(self._root, (), self.policy, self.breaker, start_ms, env, rng)


@dataclass(frozen=True)
class TreePlan:
    """Walk the model tree per measured bandwidth (Alg. 2), block by block.

    Shares :func:`~repro.runtime.resilience.resolve_offload` with
    :class:`FixedPlan`, so the same retry/breaker/deadline semantics apply
    once the walk commits to a partitioned terminal. The plan runs the
    records of :func:`~repro.model.treepath.compile_tree`: the ones
    admission verified, or, for a plan never admitted, the ones its first
    ``execute`` compiles. Later changes to the tree's nodes do not reach a
    compiled plan.
    """

    tree: ModelTree
    policy: Optional[OffloadPolicy] = None
    breaker: Optional[CircuitBreaker] = field(default=None, compare=False)
    _compiled: Optional[CompiledTree] = field(
        default=None, init=False, compare=False, repr=False
    )
    _types: Tuple[float, ...] = field(default=(), init=False, compare=False, repr=False)

    def load(self, compiled: CompiledTree) -> None:
        """Run ``compiled`` (this plan's tree, compiled) from now on."""
        object.__setattr__(self, "_compiled", compiled)
        types = tuple(float(t) for t in self.tree.bandwidth_types)
        object.__setattr__(self, "_types", types)

    def compiled(self) -> CompiledTree:
        """The plan's records, compiled on first use.

        Raises ``ValueError`` when some path cannot compose at all; a path
        that misses the base interface still runs (admission rejects it).
        """
        if self._compiled is None:
            self.load(compile_tree(self.tree.root, self.tree.base))
        return self._compiled.runnable()

    def execute(
        self, start_ms: float, env: RuntimeEnvironment, rng: np.random.Generator
    ) -> InferenceOutcome:
        require_non_negative(start_ms, "start_ms")
        compiled = self._compiled
        if compiled is None or compiled.root is None:
            compiled = self.compiled()
        return _walk(
            compiled.root, self._types, self.policy, self.breaker, start_ms, env, rng
        )
