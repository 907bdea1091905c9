"""Shared evaluation context for all search strategies.

Bundles everything a candidate evaluation needs — the base model, the
technique registry, the latency estimator (Eqns. 3–6), the accuracy
evaluator, and the reward normalization (Eqn. 7) — behind one
:meth:`SearchContext.evaluate` call, with a memoization pool over
(edge, cloud, bandwidth) triples (Sec. VII-A: "a memory pool storing the
hash code of searched models to avoid redundant computations").

The pool is a bounded LRU :class:`~repro.perf.MemoPool` keyed on the two
cached spec fingerprints plus the **exact** bandwidth float. Earlier
revisions rounded the bandwidth to 1e-3 Mbps, so two candidates whose
bandwidths differed by less than 0.5e-3 collided and the second caller
silently received the first caller's result — wrong latency, reward, and
stored ``bandwidth_mbps``. Hit/miss counters and an evaluation span feed
the process-wide :class:`~repro.perf.PerfRegistry`.

``debug=True`` statically verifies every candidate with
:mod:`repro.analysis` before it is evaluated, raising
:class:`~repro.analysis.VerificationError` on a malformed split — useful
when developing new techniques or search policies. Verification runs on
cache *misses* only: a pooled result was already verified when it was
first computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..accuracy.base import AccuracyEvaluator, MemoizedEvaluator
from ..compression.base import TechniqueRegistry
from ..contracts import require_positive
from ..latency.compute import LatencyBreakdown, LatencyEstimator
from ..mdp.reward import RewardConfig
from ..model.spec import ModelSpec
from ..obs.trace import span
from ..perf import DEFAULT_MAXSIZE, MemoPool, MemoStats, get_registry
from .composer import SpecComposer


@dataclass(frozen=True)
class CandidateResult:
    """Evaluation of one (edge model, cloud model, bandwidth) candidate."""

    edge_spec: Optional[ModelSpec]
    cloud_spec: Optional[ModelSpec]
    bandwidth_mbps: float
    accuracy: float
    latency: LatencyBreakdown
    reward: float

    @property
    def latency_ms(self) -> float:
        return self.latency.total_ms


class SearchContext:
    """Evaluates candidates and owns the memoization pool."""

    def __init__(
        self,
        base: ModelSpec,
        registry: TechniqueRegistry,
        estimator: LatencyEstimator,
        accuracy: AccuracyEvaluator,
        reward: RewardConfig,
        debug: bool = False,
        memo_maxsize: Optional[int] = DEFAULT_MAXSIZE,
    ) -> None:
        self.base = base
        self.registry = registry
        self.estimator = estimator
        self.accuracy = (
            accuracy
            if isinstance(accuracy, MemoizedEvaluator)
            else MemoizedEvaluator(accuracy)
        )
        self.reward_config = reward
        self.debug = debug
        self._pool: MemoPool = MemoPool(maxsize=memo_maxsize, name="search.memo")
        #: Composed-spec cache shared by every search strategy over this
        #: context: prefix/cloud/full compositions are keyed on the parts'
        #: cached fingerprints, so repeat compositions across episodes are
        #: dict reads instead of fresh concatenations.
        self.composer = SpecComposer(maxsize=memo_maxsize, name="compose.memo")
        self.evaluations = 0

    def evaluate(
        self,
        edge_spec: Optional[ModelSpec],
        cloud_spec: Optional[ModelSpec],
        bandwidth_mbps: float,
    ) -> CandidateResult:
        """Reward (Eqn. 7) of running ``edge_spec`` locally and shipping the
        rest to ``cloud_spec`` at constant ``bandwidth_mbps``."""
        require_positive(bandwidth_mbps, "bandwidth_mbps")
        key = (
            edge_spec.fingerprint() if edge_spec is not None else "",
            cloud_spec.fingerprint() if cloud_spec is not None else "",
            float(bandwidth_mbps),  # exact: never rounded or coarsened
        )
        cached = self._pool.get(key)
        if cached is not None:
            get_registry().count("search.evaluate.hits")
            return cached
        get_registry().count("search.evaluate.misses")
        with span("search.evaluate"):
            if self.debug:
                # Lazy import: analysis is optional on the evaluation hot path.
                from ..analysis import raise_on_error, verify_candidate

                raise_on_error(
                    verify_candidate(edge_spec, cloud_spec, base=self.base),
                    context="search candidate",
                )
            self.evaluations += 1

            composed = self.composer.concat(
                [edge_spec, cloud_spec], name="composed"
            )
            if composed is None:
                raise ValueError("candidate has neither edge nor cloud model")

            accuracy = self.accuracy.evaluate(composed)
            breakdown = self.estimator.estimate_composed(
                edge_spec, cloud_spec, bandwidth_mbps
            )
            reward = self.reward_config.reward(accuracy, breakdown.total_ms)
            result = CandidateResult(
                edge_spec=edge_spec,
                cloud_spec=cloud_spec,
                bandwidth_mbps=bandwidth_mbps,
                accuracy=accuracy,
                latency=breakdown,
                reward=reward,
            )
            self._pool.put(key, result)
        return result

    @property
    def memo(self) -> MemoPool:
        """The memoization pool (bounded LRU with counters)."""
        return self._pool

    def memo_stats(self) -> MemoStats:
        """Hit/miss/eviction telemetry of the memo pool."""
        return self._pool.stats

    @property
    def pool_size(self) -> int:
        """Number of pooled results (kept for backward compatibility)."""
        return len(self._pool)
