"""Partition-only baselines, chiefly Dynamic DNN Surgery (Hu et al.).

The paper's main comparator "finds out the optimal partition for a fixed
DNN model under a constant network state by searching the min-cut on a
DAG" (dynamic adaptive DNN surgery, INFOCOM'19). We reproduce it with a
max-flow/min-cut construction on the layer graph (networkx):

- source ``s`` = edge side, sink ``t`` = cloud side;
- capacity ``s → i`` = the *cloud* compute time of layer ``i`` (paid when
  ``i`` lands on the cloud side of the cut);
- capacity ``i → t`` = the *edge* compute time of layer ``i``;
- capacity ``i → j`` for each activation edge = the transfer time of ``i``'s
  output at the given bandwidth (paid when the activation crosses the cut),
  with an equal-capacity reverse edge so backward crossings pay too.

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
from typing import List, Optional, Tuple

import networkx as nx

from ..contracts import require_positive
from ..perf import get_registry
from .context import CandidateResult, SearchContext
from .plan import apply_compression_plan


@dataclass(frozen=True)
class SurgeryResult:
    """Outcome of the min-cut partition."""

    partition_index: int  # edge keeps layers [0, partition_index)
    result: CandidateResult


def dynamic_dnn_surgery(
    context: SearchContext, bandwidth_mbps: float
) -> SurgeryResult:
    """Min-cut partition of the fixed base DNN at one bandwidth."""
    require_positive(bandwidth_mbps, "bandwidth_mbps")
    get_registry().count("surgery.runs")
    spec = context.base
    estimator = context.estimator
    graph = nx.DiGraph()
    source, sink = "s", "t"
    n = len(spec)

    for i in range(n):
        shapes = (spec.input_shape_of(i), spec.output_shape_of(i))
        graph.add_edge(source, i, capacity=estimator.cloud.layer_latency_ms(spec[i], *shapes))
        graph.add_edge(i, sink, capacity=estimator.edge.layer_latency_ms(spec[i], *shapes))
    # Input arrives on the edge device: shipping the raw input costs its
    # transfer time, modeled by chaining the source to layer 0's data edge.
    transfer = estimator.transfer
    graph.add_edge(source, "input", capacity=float("inf"))
    graph.add_edge(
        "input",
        0,
        capacity=transfer.latency_ms(spec.input_shape.num_bytes, bandwidth_mbps),
    )
    graph.add_edge(0, "input", capacity=0.0)
    for i in range(n - 1):
        cost = transfer.latency_ms(spec.feature_bytes_after(i), bandwidth_mbps)
        graph.add_edge(i, i + 1, capacity=cost)
        graph.add_edge(i + 1, i, capacity=cost)

    cut_value, (edge_side, cloud_side) = nx.minimum_cut(graph, source, sink)
    # For a chain the min cut is a prefix/suffix split; recover the boundary.
    on_edge = {i for i in range(n) if i in edge_side}
    partition_index = 0
    while partition_index < n and partition_index in on_edge:
        partition_index += 1

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
