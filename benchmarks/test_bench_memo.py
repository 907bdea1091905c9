"""Memo-pool hot path: repeated candidate evaluation.

Search episodes revisit the same (edge, cloud, bandwidth) candidates over
and over — Sec. VII-A's memory pool exists precisely for this. The bench
replays a repeated-candidate workload through the current pool (cached
spec fingerprints + :class:`repro.perf.MemoPool`) and through a faithful
reconstruction of the pre-pool path (fingerprints recomputed on every
lookup by the original ``asdict`` + JSON serializer, bandwidth rounded to
1e-3, bare dict), asserting the cached path is at least 2x faster. The
measured speedup and the pool's hit-rate telemetry land in
``extra_info`` so ``make bench-json`` persists them in
``BENCH_search.json``.
"""

import dataclasses
import hashlib
import json
import time

import pytest

from repro.nn.zoo import vgg11
from tests.conftest import make_context

PASSES = 20  # repeated visits per candidate: a hit-dominated workload
BANDWIDTHS = (3.0, 5.0, 12.0, 30.0)


@pytest.fixture(scope="module")
def workload():
    """All pure-partition candidates of VGG-11 at four bandwidths."""
    context = make_context(vgg11(), 0.9201)
    base = context.base
    candidates = []
    for cut in range(len(base) + 1):
        edge = base.slice(0, cut) if cut else None
        cloud = base.slice(cut, len(base)) if cut < len(base) else None
        for bandwidth in BANDWIDTHS:
            candidates.append((edge, cloud, bandwidth))
    return context, candidates


def _run_pooled(context, candidates):
    for edge, cloud, bandwidth in candidates:
        context.evaluate(edge, cloud, bandwidth)


def _legacy_layer_dict(layer):
    """The original ``LayerSpec.to_dict``: ``asdict`` with the type's value."""
    data = dataclasses.asdict(layer)
    data["layer_type"] = layer.layer_type.value
    return data


def _legacy_fingerprint(spec):
    """The pre-pool fingerprint: the whole spec serialized on every call.

    A private copy of the original ``compute_fingerprint``. The library
    now assembles the same payload from cached per-layer fragments, which
    is no longer the uncached cost this bench measures the pool against.
    """
    payload = json.dumps(
        {
            "input": dataclasses.asdict(spec.input_shape),
            "layers": [_legacy_layer_dict(layer) for layer in spec.layers],
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _run_legacy(pool, context, candidates):
    """The pre-pool memo path: uncached hashes, rounded-bandwidth dict key."""
    for edge, cloud, bandwidth in candidates:
        key = (
            _legacy_fingerprint(edge) if edge is not None else "",
            _legacy_fingerprint(cloud) if cloud is not None else "",
            round(bandwidth, 3),
        )
        if key not in pool:
            pool[key] = context.evaluate(edge, cloud, bandwidth)


def test_bench_memo_pool_vs_legacy(benchmark, workload):
    context, candidates = workload

    # Warm both paths so the timed passes are the steady (hit-dominated)
    # state a long search actually runs in.
    legacy_pool = {}
    legacy_context = make_context(vgg11(), 0.9201)
    _run_legacy(legacy_pool, legacy_context, candidates)
    _run_pooled(context, candidates)

    start = time.perf_counter()
    for _ in range(PASSES):
        _run_legacy(legacy_pool, legacy_context, candidates)
    legacy_s = time.perf_counter() - start

    def pooled_passes():
        for _ in range(PASSES):
            _run_pooled(context, candidates)

    benchmark.pedantic(pooled_passes, rounds=3, iterations=1)
    pooled_s = benchmark.stats.stats.min

    speedup = legacy_s / pooled_s
    stats = context.memo_stats()
    benchmark.extra_info["speedup_vs_legacy"] = round(speedup, 2)
    benchmark.extra_info["legacy_pass_ms"] = round(legacy_s / PASSES * 1e3, 4)
    benchmark.extra_info["memo_hit_rate"] = round(stats.hit_rate, 4)
    benchmark.extra_info["memo_hits"] = stats.hits
    benchmark.extra_info["memo_misses"] = stats.misses
    benchmark.extra_info["memo_size"] = stats.size

    # Steady state: every candidate was seen before, so all lookups hit.
    assert stats.hit_rate > 0.9
    assert speedup >= 2.0, f"cached memo path only {speedup:.2f}x faster"
