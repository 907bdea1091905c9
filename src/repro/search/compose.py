"""Composing a DNN from a model tree at runtime — Algorithm 2.

Starting at the root, the decision engine concatenates the root block, then
repeatedly measures the current bandwidth, matches it to the k-th fork, and
concatenates the k-th child block — until it reaches a childless node (fully
on-edge model) or a partitioned node (remaining computation ships to the
cloud). The concatenation is done once per tree, by
:func:`~repro.model.treepath.compile_tree`; the walk here follows its
records, as the runtime engine does per request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..contracts import require_positive
from ..model.spec import ModelSpec
from ..model.treepath import compile_tree
from ..perf import get_registry
from .tree import ModelTree, TreeNode

#: Called before each fork with the index of the block it picks (the walk's
#: depth + 1, the block index in a well-formed tree); returns measured Mbps.
BandwidthProbe = Callable[[int], float]


@dataclass(frozen=True)
class ComposedModel:
    """The result of one Alg. 2 walk: the compiled leaf it reached."""

    path: Tuple[TreeNode, ...]
    edge_spec: Optional[ModelSpec]
    cloud_spec: Optional[ModelSpec]  # None when nothing offloads
    measured_bandwidths: Tuple[float, ...]
    _full_spec: ModelSpec = field(repr=False)

    @property
    def offloads(self) -> bool:
        return self.cloud_spec is not None

    def full_spec(self) -> ModelSpec:
        return self._full_spec


def match_fork(bandwidth_mbps: float, bandwidth_types: Sequence[float]) -> int:
    """Match a live measurement to the nearest configured bandwidth type.

    A tie goes to the lower index, as ``np.argmin`` breaks it. A plain
    loop, because the engine calls this once per fork per request over
    two or three types.
    """
    require_positive(bandwidth_mbps, "bandwidth_mbps")
    best = 0
    best_distance = abs(bandwidth_mbps - bandwidth_types[0])
    for index in range(1, len(bandwidth_types)):
        distance = abs(bandwidth_mbps - bandwidth_types[index])
        if distance < best_distance:
            best, best_distance = index, distance
    return best


def compose_from_tree(tree: ModelTree, probe: BandwidthProbe) -> ComposedModel:
    """Algorithm 2: grow a model from the tree, fork by measured bandwidth.

    Follows the tree's compiled records, so it raises ``ValueError`` where
    executing the tree would: on a path that cannot compose at all.
    """
    get_registry().count("compose.walks")
    node = compile_tree(tree.root, tree.base).runnable().root
    measured: List[float] = []
    while node.leaf is None:
        bandwidth = probe(len(measured) + 1)
        measured.append(bandwidth)
        fork = match_fork(bandwidth, tree.bandwidth_types)
        node = node.children[min(fork, len(node.children) - 1)]
    leaf = node.leaf
    return ComposedModel(
        leaf.path, leaf.edge_spec, leaf.cloud_spec, tuple(measured), leaf.full_spec
    )
