"""Composing a DNN from a model tree at runtime — Algorithm 2.

Starting at the root, the decision engine concatenates the root block, then
repeatedly measures the current bandwidth, matches it to the k-th fork, and
concatenates the k-th child block — until it reaches a childless node (fully
on-edge model) or a partitioned node (remaining computation ships to the
cloud).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..contracts import require_positive
from ..model.spec import ModelSpec
from ..perf import get_registry
from .composer import SpecComposer
from .tree import ModelTree, TreeNode

#: Called before each block with the block index; returns measured Mbps.
BandwidthProbe = Callable[[int], float]


@dataclass(frozen=True)
class ComposedModel:
    """The result of one Alg. 2 walk."""

    path: Tuple[TreeNode, ...]
    edge_spec: Optional[ModelSpec]
    cloud_spec: Optional[ModelSpec]
    measured_bandwidths: Tuple[float, ...]

    @property
    def offloads(self) -> bool:
        return self.cloud_spec is not None and len(self.cloud_spec) > 0

    def full_spec(self) -> ModelSpec:
        if self.edge_spec is None or not len(self.edge_spec):
            assert self.cloud_spec is not None
            return self.cloud_spec
        if self.cloud_spec is None or not len(self.cloud_spec):
            return self.edge_spec
        return self.edge_spec.concatenate(self.cloud_spec, name="composed")

    def fingerprint(self) -> str:
        """Stable identity of the composition — ``edge:cloud`` fingerprints.

        Built from the parts' *cached* fingerprints (never the concatenated
        spec), so identifying a walk's outcome — e.g. deduplicating across
        requests or keying a downstream cache — costs two dict reads
        instead of a fresh serialization of the full model.
        """
        edge = self.edge_spec.fingerprint() if self.edge_spec is not None else ""
        cloud = self.cloud_spec.fingerprint() if self.cloud_spec is not None else ""
        return f"{edge}:{cloud}"


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


def compose_from_tree(
    tree: ModelTree,
    probe: BandwidthProbe,
    composer: Optional[SpecComposer] = None,
) -> ComposedModel:
    """Algorithm 2: grow a model from the tree, fork by measured bandwidth.

    ``composer`` (optional) caches the edge-prefix concatenation by the
    parts' fingerprints, so repeated walks down the same path reuse one
    composed spec. The runtime engine walks a compiled copy of the tree
    instead (:mod:`repro.runtime.engine`) and shares :func:`match_fork`.
    """
    get_registry().count("compose.walks")
    node = tree.root
    path: List[TreeNode] = [node]
    measured: List[float] = []
    edge_parts: List[ModelSpec] = []

    while True:
        if node.edge_spec is not None and len(node.edge_spec):
            edge_parts.append(node.edge_spec)
        if node.partitioned or not node.children:
            if composer is not None:
                edge_spec = composer.concat(edge_parts)
            else:
                edge_spec = None
                for part in edge_parts:
                    edge_spec = (
                        part if edge_spec is None else edge_spec.concatenate(part)
                    )
            return ComposedModel(
                path=tuple(path),
                edge_spec=edge_spec,
                cloud_spec=node.cloud_spec,
                measured_bandwidths=tuple(measured),
            )
        bandwidth = probe(node.block_index + 1)
        measured.append(bandwidth)
        fork = match_fork(bandwidth, tree.bandwidth_types)
        fork = min(fork, len(node.children) - 1)
        node = node.children[fork]
        path.append(node)
