"""Action policies: RL controllers plus the baseline search strategies.

All search drivers (optimal branch, model tree) pick actions through one
interface, so swapping the decision engine for random search or ε-greedy —
the comparison of Fig. 7 — is a constructor argument, not a rewrite. The
interface is batch-only: a driver with one request passes a batch of one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..compression.base import TechniqueRegistry
from ..contracts import require_positive
from ..model.spec import ModelSpec
from ..rl.controller import (
    NO_PARTITION,
    CompressionController,
    PartitionController,
)
from ..rl.reinforce import ReinforceTrainer

ActionToken = object  # opaque per-policy bookkeeping attached to an action


def _require_positive_bandwidths(bandwidths_mbps: Sequence[float]) -> None:
    """Entry contract for the batch APIs: every bandwidth must be > 0."""
    for bandwidth in bandwidths_mbps:
        require_positive(bandwidth, "bandwidth_mbps")


class SearchPolicy(Protocol):
    """Interface all search strategies implement.

    The two sampling methods take a batch of requests: the tree episode
    passes all pending requests of a tree level (same block, different
    bandwidths), and branch search passes one row. ``update_episode``
    folds every node's (tokens, reward) pair of one episode into a single
    policy update. Implementations must consume the RNG in request order,
    so one call of N rows is indistinguishable from N calls of one row.
    """

    def sample_partition_batch(
        self,
        spec: ModelSpec,
        bandwidths_mbps: Sequence[float],
        rng: np.random.Generator,
        force_flags: Optional[Sequence[bool]] = None,
    ) -> List[Tuple[int, ActionToken]]: ...

    def sample_compression_batch(
        self,
        specs: Sequence[ModelSpec],
        bandwidths_mbps: Sequence[float],
        rng: np.random.Generator,
    ) -> List[Tuple[List[str], ActionToken]]: ...

    def update_episode(
        self, updates: Sequence[Tuple[Sequence[ActionToken], float]]
    ) -> None: ...


class RLPolicy:
    """The paper's decision engine: LSTM controllers + REINFORCE."""

    def __init__(
        self,
        registry: TechniqueRegistry,
        hidden_size: int = 32,
        lr: float = 5e-3,
        reward_scale: float = 0.01,
        entropy_coeff: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.partition_controller = PartitionController(hidden_size, seed=seed)
        self.compression_controller = CompressionController(
            registry, hidden_size, seed=seed
        )
        self.partition_trainer = ReinforceTrainer(
            self.partition_controller, lr=lr, reward_scale=reward_scale,
            entropy_coeff=entropy_coeff, name="partition",
        )
        self.compression_trainer = ReinforceTrainer(
            self.compression_controller, lr=lr, reward_scale=reward_scale,
            entropy_coeff=entropy_coeff, name="compression",
        )

    def sample_partition_batch(
        self,
        spec: ModelSpec,
        bandwidths_mbps: Sequence[float],
        rng: np.random.Generator,
        force_flags: Optional[Sequence[bool]] = None,
    ) -> List[Tuple[int, ActionToken]]:
        _require_positive_bandwidths(bandwidths_mbps)
        triples = self.partition_controller.sample_batch(
            spec, bandwidths_mbps, rng, force_flags=force_flags
        )
        return [
            (
                cut,
                (
                    "partition",
                    [log_prob],
                    [entropy] if entropy is not None else [],
                ),
            )
            for cut, log_prob, entropy in triples
        ]

    def sample_compression_batch(
        self,
        specs: Sequence[ModelSpec],
        bandwidths_mbps: Sequence[float],
        rng: np.random.Generator,
    ) -> List[Tuple[List[str], ActionToken]]:
        _require_positive_bandwidths(bandwidths_mbps)
        results = self.compression_controller.sample_batch(
            specs, bandwidths_mbps, rng
        )
        return [
            (names, ("compression", log_probs, entropies))
            for names, log_probs, entropies in results
        ]

    def _trainer_for(self, kind: str) -> ReinforceTrainer:
        return (
            self.partition_trainer
            if kind == "partition"
            else self.compression_trainer
        )

    def update_episode(
        self, updates: Sequence[Tuple[Sequence[ActionToken], float]]
    ) -> None:
        """One optimizer step per controller for a whole tree episode.

        Tokens are bucketed by controller kind in node order, then each
        trainer applies its bucket as a single accumulated-loss step with
        the EMA baseline snapshotted at episode start (see
        :meth:`~repro.rl.reinforce.ReinforceTrainer.update_episode`).
        """
        buckets: Dict[str, List[Tuple]] = {"partition": [], "compression": []}
        for tokens, reward in updates:
            for kind, log_probs, entropies in tokens:
                buckets[kind].append((log_probs, reward, entropies))
        for kind, episodes in buckets.items():
            if episodes:
                self._trainer_for(kind).update_episode(episodes)


class RandomPolicy:
    """Uniform random over the identical action space (Fig. 7 baseline)."""

    def __init__(self, registry: TechniqueRegistry) -> None:
        self.registry = registry

    def sample_partition_batch(
        self,
        spec: ModelSpec,
        bandwidths_mbps: Sequence[float],
        rng: np.random.Generator,
        force_flags: Optional[Sequence[bool]] = None,
    ) -> List[Tuple[int, ActionToken]]:
        _require_positive_bandwidths(bandwidths_mbps)
        results: List[Tuple[int, ActionToken]] = []
        for force in _normalized_flags(force_flags, len(bandwidths_mbps)):
            if force:
                results.append((NO_PARTITION, None))
                continue
            index = int(rng.integers(0, len(spec) + 1))
            results.append((NO_PARTITION if index == len(spec) else index, None))
        return results

    def sample_compression_batch(
        self,
        specs: Sequence[ModelSpec],
        bandwidths_mbps: Sequence[float],
        rng: np.random.Generator,
    ) -> List[Tuple[List[str], ActionToken]]:
        _require_positive_bandwidths(bandwidths_mbps)
        results: List[Tuple[List[str], ActionToken]] = []
        for spec in specs:
            names = []
            for i in range(len(spec)):
                options = [t.name for t in self.registry.applicable(spec, i)]
                names.append(
                    options[int(rng.integers(0, len(options)))] if options else "ID"
                )
            results.append((names, None))
        return results

    def update_episode(
        self, updates: Sequence[Tuple[Sequence[ActionToken], float]]
    ) -> None:
        return None


class EpsilonGreedyPolicy:
    """Tabular ε-greedy over the same action space (Fig. 7 baseline).

    Action values are running means keyed by a coarse state description
    (block shape + bandwidth); unseen actions start optimistic so every arm
    is tried once.
    """

    def __init__(
        self,
        registry: TechniqueRegistry,
        epsilon: float = 0.2,
        optimistic_value: float = 400.0,
    ) -> None:
        self.registry = registry
        self.epsilon = epsilon
        self.optimistic_value = optimistic_value
        self._values: Dict[Tuple, Tuple[float, int]] = {}

    # -- internals ------------------------------------------------------
    def _state_key(self, spec: ModelSpec, bandwidth_mbps: float) -> Tuple:
        return (spec.fingerprint(), round(bandwidth_mbps, 1))

    def _value(self, key: Tuple) -> float:
        mean, count = self._values.get(key, (self.optimistic_value, 0))
        return mean

    def _record(self, key: Tuple, reward: float) -> None:
        mean, count = self._values.get(key, (0.0, 0))
        self._values[key] = ((mean * count + reward) / (count + 1), count + 1)

    # -- SearchPolicy ------------------------------------------------------
    def sample_partition_batch(
        self,
        spec: ModelSpec,
        bandwidths_mbps: Sequence[float],
        rng: np.random.Generator,
        force_flags: Optional[Sequence[bool]] = None,
    ) -> List[Tuple[int, ActionToken]]:
        _require_positive_bandwidths(bandwidths_mbps)
        flags = _normalized_flags(force_flags, len(bandwidths_mbps))
        actions = list(range(len(spec))) + [NO_PARTITION]
        results: List[Tuple[int, ActionToken]] = []
        for bandwidth_mbps, force in zip(bandwidths_mbps, flags):
            state = self._state_key(spec, bandwidth_mbps)
            if force:
                action = NO_PARTITION
            elif rng.random() < self.epsilon:
                action = actions[int(rng.integers(0, len(actions)))]
            else:
                action = max(actions, key=lambda a: self._value(("p", state, a)))
            results.append((action, [("p", state, action)]))
        return results

    def sample_compression_batch(
        self,
        specs: Sequence[ModelSpec],
        bandwidths_mbps: Sequence[float],
        rng: np.random.Generator,
    ) -> List[Tuple[List[str], ActionToken]]:
        _require_positive_bandwidths(bandwidths_mbps)
        results: List[Tuple[List[str], ActionToken]] = []
        for spec, bandwidth_mbps in zip(specs, bandwidths_mbps):
            names: List[str] = []
            keys: List[Tuple] = []
            state = self._state_key(spec, bandwidth_mbps)
            for i in range(len(spec)):
                options = [t.name for t in self.registry.applicable(spec, i)]
                if not options:
                    names.append("ID")
                    continue
                if rng.random() < self.epsilon:
                    choice = options[int(rng.integers(0, len(options)))]
                else:
                    choice = max(options, key=lambda n: self._value(("c", state, i, n)))
                names.append(choice)
                keys.append(("c", state, i, choice))
            results.append((names, keys))
        return results

    def update_episode(
        self, updates: Sequence[Tuple[Sequence[ActionToken], float]]
    ) -> None:
        for tokens, reward in updates:
            for token in tokens:
                for key in token or ():
                    self._record(key, reward)


def _normalized_flags(
    force_flags: Optional[Sequence[bool]], count: int
) -> List[bool]:
    flags = list(force_flags) if force_flags is not None else [False] * count
    if len(flags) != count:
        raise ValueError("force_flags length must match bandwidths_mbps")
    return flags
