"""Partition-only baselines, chiefly Dynamic DNN Surgery (Hu et al.).

The paper's main comparator "finds out the optimal partition for a fixed
DNN model under a constant network state by searching the min-cut on a
DAG" (dynamic adaptive DNN surgery, INFOCOM'19). We reproduce it with a
min-cut construction on the layer graph:

- source ``s`` = edge side, sink ``t`` = cloud side;
- capacity ``s → i`` = the *cloud* compute time of layer ``i`` (paid when
  ``i`` lands on the cloud side of the cut);
- capacity ``i → t`` = the *edge* compute time of layer ``i``;
- capacity ``i → j`` for each activation edge = the transfer time of ``i``'s
  output at the given bandwidth (paid when the activation crosses the cut),
  with an equal-capacity reverse edge so backward crossings pay too.

The layer graph of a chain is a path, so its minimum cut is a two-state
dynamic program over the layers (:func:`_min_cut_prefix`); the general
DAG case is :func:`repro.model.dag.dag_surgery`.

The model stays *unmodified* (no compression), so the surgery baseline's
accuracy always equals the base accuracy — exactly as in Tables IV/V where
the Surgery column reports 92.01 % everywhere for VGG11.

Also here: an exhaustive chain-partition oracle (used to verify the min-cut
reduction on chains) and an exhaustive joint search for tiny spaces (used to
verify the RL engine finds true optima in tests).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ..contracts import require_positive
from ..perf import get_registry
from .context import CandidateResult, SearchContext
from .plan import apply_compression_plan


@dataclass(frozen=True)
class SurgeryResult:
    """Outcome of the min-cut partition."""

    partition_index: int  # edge keeps layers [0, partition_index)
    result: CandidateResult


def _min_cut_prefix(
    edge_ms: Sequence[float], cloud_ms: Sequence[float], cross_ms: Sequence[float]
) -> int:
    """Leading layers on the edge side of a chain's minimum s–t cut.

    Layer ``i`` pays ``edge_ms[i]`` on the edge (source) side and
    ``cloud_ms[i]`` on the cloud (sink) side, plus ``cross_ms[i]`` when it
    sits on the other side from what feeds it: layer ``i - 1``, or for
    ``i = 0`` the raw input, which is pinned to the edge. Of the minimum
    cuts it takes the one with the most layers on the edge, which is the
    source side a max flow's residual graph gives. The sums are exact
    (``Fraction``), so two cuts of equal cost tie.
    """
    edge = [Fraction(x) for x in edge_ms]
    cloud = [Fraction(x) for x in cloud_ms]
    cross = [Fraction(x) for x in cross_ms]
    n = len(edge)
    if n == 0:
        return 0
    # ahead[i] / behind[i]: cheapest cut of layers ..i / i.. with layer i
    # on the (edge, cloud) side.
    ahead = [(edge[0], cloud[0] + cross[0])]
    for i in range(1, n):
        on_edge, on_cloud = ahead[-1]
        ahead.append((
            edge[i] + min(on_edge, on_cloud + cross[i]),
            cloud[i] + min(on_cloud, on_edge + cross[i]),
        ))
    behind = [(edge[-1], cloud[-1])]
    for i in range(n - 2, -1, -1):
        on_edge, on_cloud = behind[-1]
        behind.append((
            edge[i] + min(on_edge, on_cloud + cross[i + 1]),
            cloud[i] + min(on_cloud, on_edge + cross[i + 1]),
        ))
    behind.reverse()
    best = min(ahead[-1])
    prefix = 0
    while prefix < n and ahead[prefix][0] + behind[prefix][0] - edge[prefix] == best:
        prefix += 1
    return prefix


def dynamic_dnn_surgery(
    context: SearchContext, bandwidth_mbps: float
) -> SurgeryResult:
    """Min-cut partition of the fixed base DNN at one bandwidth."""
    require_positive(bandwidth_mbps, "bandwidth_mbps")
    get_registry().count("surgery.runs")
    spec = context.base
    estimator = context.estimator
    n = len(spec)
    shapes = [(spec.input_shape_of(i), spec.output_shape_of(i)) for i in range(n)]
    transfer = estimator.transfer
    partition_index = _min_cut_prefix(
        [estimator.edge.layer_latency_ms(spec[i], *shapes[i]) for i in range(n)],
        [estimator.cloud.layer_latency_ms(spec[i], *shapes[i]) for i in range(n)],
        # Input arrives on the edge device: shipping the raw input costs
        # its transfer time; later crossings ship the previous activation.
        [transfer.latency_ms(spec.input_shape.num_bytes, bandwidth_mbps)]
        + [
            transfer.latency_ms(spec.feature_bytes_after(i), bandwidth_mbps)
            for i in range(n - 1)
        ],
    )
    edge_spec = spec.slice(0, partition_index) if partition_index > 0 else None
    cloud_spec = spec.slice(partition_index, n) if partition_index < n else None
    result = context.evaluate(edge_spec, cloud_spec, bandwidth_mbps)
    return SurgeryResult(partition_index, result)


def exhaustive_chain_partition(
    context: SearchContext, bandwidth_mbps: float
) -> SurgeryResult:
    """Oracle: try every cut of the chain; minimize total latency."""
    require_positive(bandwidth_mbps, "bandwidth_mbps")
    spec = context.base
    best: Optional[Tuple[float, int]] = None
    for p in range(len(spec) + 1):
        breakdown = context.estimator.estimate(spec, p, bandwidth_mbps)
        if best is None or breakdown.total_ms < best[0]:
            best = (breakdown.total_ms, p)
    assert best is not None
    p = best[1]
    edge_spec = spec.slice(0, p) if p > 0 else None
    cloud_spec = spec.slice(p, len(spec)) if p < len(spec) else None
    return SurgeryResult(p, context.evaluate(edge_spec, cloud_spec, bandwidth_mbps))


def exhaustive_branch_search(
    context: SearchContext,
    bandwidth_mbps: float,
    max_candidates: int = 200_000,
) -> CandidateResult:
    """Joint (partition × compression) brute force for tiny search spaces.

    Enumerates every cut and every per-layer technique assignment of the
    edge half. Only usable on small models — the space grows exponentially
    ("an exhaustive search is unaffordable", Sec. VII) — so it guards the RL
    engine's optimality in tests.
    """
    require_positive(bandwidth_mbps, "bandwidth_mbps")
    spec = context.base
    registry = context.registry
    best: Optional[CandidateResult] = None
    count = 0
    for p in range(len(spec) + 1):
        edge_raw = spec.slice(0, p) if p > 0 else None
        cloud = spec.slice(p, len(spec)) if p < len(spec) else None
        option_lists: List[List[str]] = []
        if edge_raw is not None:
            for i in range(len(edge_raw)):
                names = [t.name for t in registry.applicable(edge_raw, i)]
                option_lists.append(names or ["ID"])
        for combo in itertools.product(*option_lists) if option_lists else [()]:
            count += 1
            if count > max_candidates:
                raise RuntimeError(
                    f"search space exceeds {max_candidates} candidates"
                )
            if edge_raw is not None:
                applied = apply_compression_plan(edge_raw, list(combo), registry)
                candidate = context.evaluate(applied.spec, cloud, bandwidth_mbps)
            else:
                candidate = context.evaluate(None, cloud, bandwidth_mbps)
            if best is None or candidate.reward > best.reward:
                best = candidate
    assert best is not None
    return best
