"""Shared fixtures: small models, contexts, and deterministic RNGs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accuracy import MemoizedEvaluator, SurrogateAccuracyModel
from repro.compression import default_registry
from repro.latency import CLOUD_SERVER, XIAOMI_MI_6X, LatencyEstimator
from repro.latency.transfer import CELLULAR_TRANSFER
from repro.mdp import PAPER_REWARD
from repro.model.spec import (
    LayerSpec,
    LayerType,
    ModelSpec,
    TensorShape,
    conv,
    fc,
    flatten,
    max_pool,
    relu,
)
from repro.nn.zoo import tiny_cnn, vgg11
from repro.search import SearchContext


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def small_spec() -> ModelSpec:
    """A 9-layer conv/fc chain small enough for exhaustive checks."""
    return ModelSpec(
        [
            conv(8, 3, 1, 1),
            relu(),
            max_pool(2),
            conv(16, 3, 1, 1),
            relu(),
            max_pool(2),
            flatten(),
            fc(32),
            fc(10),
        ],
        TensorShape(3, 8, 8),
        name="small",
    )


@pytest.fixture
def tiny_spec() -> ModelSpec:
    return tiny_cnn()


@pytest.fixture
def vgg11_spec() -> ModelSpec:
    return vgg11()


@pytest.fixture
def registry():
    return default_registry()


@pytest.fixture
def estimator() -> LatencyEstimator:
    return LatencyEstimator(XIAOMI_MI_6X, CLOUD_SERVER, CELLULAR_TRANSFER)


def make_split_tree(base: ModelSpec, split: int = 4, bandwidth_types=(5.0, 20.0)):
    """A one-node model tree that always offloads at ``split``.

    Deterministic by construction (no probing, no fork choices), so tests
    exercising the offload/fallback path don't depend on a searched tree
    happening to pick a partitioned branch.
    """
    from repro.search.tree import ModelTree, TreeNode

    root = TreeNode(
        block_index=0,
        fork_index=None,
        bandwidth_mbps=float(bandwidth_types[0]),
        edge_spec=base.slice(0, split),
        cloud_spec=base.slice(split, len(base)),
        partitioned=True,
    )
    return ModelTree(
        root=root,
        bandwidth_types=list(bandwidth_types),
        base=base,
        num_blocks=1,
    )


def make_context(base: ModelSpec, base_accuracy: float = 0.92) -> SearchContext:
    return SearchContext(
        base,
        default_registry(),
        LatencyEstimator(XIAOMI_MI_6X, CLOUD_SERVER, CELLULAR_TRANSFER),
        MemoizedEvaluator(SurrogateAccuracyModel(base, base_accuracy)),
        PAPER_REWARD,
    )


@pytest.fixture
def small_context(small_spec) -> SearchContext:
    return make_context(small_spec)


@pytest.fixture
def vgg_context(vgg11_spec) -> SearchContext:
    return make_context(vgg11_spec, 0.9201)


def build_tree_shape(ints, flag, types, base: ModelSpec, tamper: bool = False):
    """A random model tree over ``base``, drawn through three callables.

    ``ints(lo, hi)`` draws an int in ``[lo, hi]``, ``flag()`` a bool and
    ``types(k)`` ``k`` distinct bandwidth types, so a hypothesis strategy
    and a seeded numpy generator draw the same shapes. Trees come
    unbalanced (fewer children than types), with grafted flags, empty or
    missing edge blocks, partitioned nodes that still carry children, and
    K = 1. ``tamper`` also shifts edge and cloud slices off their
    boundary, drops edge blocks and renumbers fork and block indices, so
    every ``tree-path`` and ``tree-arity`` failure shows up.
    """
    from repro.search.tree import ModelTree, TreeNode

    bandwidths = types(ints(1, 3))
    end = len(base)

    def node(block, start, fork, depth):
        stop = ints(max(start, 1), end)
        edge = base.slice(start, stop)
        if not len(edge) and flag():
            edge = None
        partitioned = ints(0, 3) == 0
        children = []
        if depth and ints(0, 3):
            count = ints(1, len(bandwidths))
            children = [node(block + 1, stop, i, depth - 1) for i in range(count)]
        cloud = base.slice(stop, end) if partitioned else None
        kind = ints(0, 6) if tamper else 0
        if kind == 1:
            edge = base.slice(min(start + 1, stop), stop)
        elif kind == 2 and partitioned:
            cloud = base.slice(min(stop + 1, end), end)
        elif kind == 3:
            edge = None
        elif kind == 4:
            fork = None if fork else len(bandwidths)
        elif kind == 5:
            block += 1
        return TreeNode(
            block_index=block,
            fork_index=fork,
            bandwidth_mbps=bandwidths[fork] if fork in range(len(bandwidths)) else 1.0,
            edge_spec=edge,
            cloud_spec=cloud,
            partitioned=partitioned,
            children=children,
            grafted=flag(),
        )

    root = node(0, 0, None, 3)
    return ModelTree(root=root, bandwidth_types=bandwidths, base=base, num_blocks=4)


def seeded_tree_shape(seed: int, base: ModelSpec, tamper: bool = False):
    """:func:`build_tree_shape` drawn from ``numpy.random.default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    return build_tree_shape(
        lambda lo, hi: int(rng.integers(lo, hi + 1)),
        lambda: bool(rng.integers(2)),
        lambda k: [float(t) for t in rng.choice(np.arange(1, 100) / 2.0, k, replace=False)],
        base,
        tamper,
    )


def tree_shapes(base: ModelSpec, tamper: bool = False):
    """Hypothesis strategy over :func:`build_tree_shape`."""
    from hypothesis import strategies as st

    @st.composite
    def shapes(draw):
        return build_tree_shape(
            lambda lo, hi: draw(st.integers(lo, hi)),
            lambda: draw(st.booleans()),
            lambda k: draw(
                st.lists(st.floats(0.5, 50.0), min_size=k, max_size=k, unique=True)
            ),
            base,
            tamper,
        )

    return shapes()
