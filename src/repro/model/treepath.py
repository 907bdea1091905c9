"""The one tree-path compiler: every root-to-terminal path, composed once.

Alg. 2 runs a tree's paths and Alg. 3's guarantee rests on each composing
into a DNN with the base interface. :func:`compile_tree` records that once
per tree; the runtime walk, the verifier's ``tree-path`` and ``memo-key``
rules, ``compose_from_tree`` and the regret oracle all read its records.
It takes anything shaped like a ``TreeNode`` and never raises. A *break*
(edge blocks or the edge/cloud boundary disagree, or a terminal holds no
layers) makes a tree unrunnable; a path that misses only the base input
or output still runs. Both are faults.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Tuple

from .spec import ModelSpec


class PathLeaf(NamedTuple):
    """A terminal's request-invariant facts, composed once per tree."""

    path: Tuple[Any, ...]  # the source nodes, root to terminal
    edge_spec: Optional[ModelSpec]  # the walked edge prefix, None if empty
    cloud_spec: Optional[ModelSpec]  # None when nothing offloads
    payload_bytes: float  # the edge output, or the raw cloud input
    full_spec: ModelSpec  # what the accuracy evaluator scores
    bandwidth_mbps: float  # the terminal's bandwidth type
    sound: bool  # no fault on the path: it keeps the base interface


class PathNode(NamedTuple):
    """One compiled block: its non-empty edge spec and its fork children."""

    edge_spec: Optional[ModelSpec]
    children: Tuple["PathNode", ...]
    leaf: Optional[PathLeaf]  # set exactly on terminals


class PathFault(NamedTuple):
    """One path that does not compose into a valid model."""

    location: str
    message: str
    hint: Optional[str] = None


class CompiledTree(NamedTuple):
    """:func:`compile_tree`'s result; ``leaves`` in ``branches()`` order."""

    root: Optional[PathNode]  # None when some path breaks
    leaves: Tuple[PathLeaf, ...]
    faults: Tuple[PathFault, ...]  # at most one per path, the first
    broken: Optional[PathFault]  # the first break, in preorder

    def runnable(self) -> "CompiledTree":
        """These records, or the ``ValueError`` of the first broken path."""
        if self.broken is not None:
            raise ValueError(f"{self.broken.location}: {self.broken.message}")
        return self


def _nonempty(spec: Optional[ModelSpec]) -> Optional[ModelSpec]:
    return spec if spec is not None and len(spec) else None


def _location(path: Tuple[Any, ...]) -> str:
    forks = [str(node.fork_index) for node in path[1:]]
    return "path root" + ("" if not forks else ">" + ">".join(forks))


def _join(
    edge: Optional[ModelSpec], cloud: Optional[ModelSpec]
) -> Tuple[float, ModelSpec]:
    """(payload bytes, full spec) of a split whose halves meet."""
    if cloud is None:
        return 0.0, edge  # type: ignore[return-value]
    if edge is None:
        return cloud.input_shape.num_bytes, cloud
    return edge.output_shape.num_bytes, edge.concatenate(cloud, name="composed")


def compile_tree(root: Any, base: ModelSpec) -> CompiledTree:
    """Compose every root-to-terminal path of the tree under ``root``."""
    leaves: List[PathLeaf] = []
    faults: List[PathFault] = []
    breaks: List[PathFault] = []

    def walk(node, path, prefix, quiet) -> Optional[PathNode]:
        # ``quiet``: a fault on this path is on record, report no more.
        path = path + (node,)

        def fault(message: str, hint: Optional[str] = None, breaks_path=False) -> bool:
            found = PathFault(_location(path), message, hint)
            if not quiet:
                faults.append(found)
            if breaks_path:
                breaks.append(found)
            return True

        edge_spec = _nonempty(node.edge_spec)
        if edge_spec is not None:
            expected = prefix.output_shape if prefix is not None else base.input_shape
            if edge_spec.input_shape != expected:
                quiet = fault(
                    f"block {node.block_index} edge input {edge_spec.input_shape} "
                    f"does not continue the path (expected {expected})",
                    "consecutive edge blocks must chain shapes",
                    breaks_path=prefix is not None,
                )
                if prefix is not None:
                    return None
            prefix = edge_spec if prefix is None else prefix.concatenate(edge_spec)
        if not node.partitioned and node.children:
            children = [walk(child, path, prefix, quiet) for child in node.children]
            return None if None in children else PathNode(edge_spec, tuple(children), None)

        cloud = _nonempty(node.cloud_spec)
        if prefix is None and cloud is None:
            fault("terminal path composes to an empty model", breaks_path=True)
            return None
        if cloud is not None:
            boundary = prefix.output_shape if prefix is not None else base.input_shape
            if cloud.input_shape != boundary:
                quiet = fault(
                    f"cloud input {cloud.input_shape} does not match the edge "
                    f"output {boundary} at the partition boundary",
                    breaks_path=prefix is not None,
                )
                if prefix is not None:
                    return None
        final = cloud.output_shape if cloud is not None else prefix.output_shape
        if final != base.output_shape:
            quiet = fault(
                f"path output {final} does not match base output {base.output_shape}",
                "every runtime-reachable path must keep the base interface",
            )
        payload, full = _join(prefix, cloud)
        leaf = PathLeaf(path, prefix, cloud, payload, full, node.bandwidth_mbps, not quiet)
        leaves.append(leaf)
        return PathNode(edge_spec, (), leaf)

    compiled = walk(root, (), None, False)
    broken = breaks[0] if breaks else None
    return CompiledTree(None if breaks else compiled, tuple(leaves), tuple(faults), broken)


def compile_split(edge_spec: Optional[ModelSpec], cloud_spec: Optional[ModelSpec]) -> PathNode:
    """A fixed split as the one-leaf tree; raises ``ValueError`` if it is
    empty or its halves do not meet."""
    edge, cloud = _nonempty(edge_spec), _nonempty(cloud_spec)
    if edge is None and cloud is None:
        raise ValueError("plan has neither edge nor cloud model")
    return PathNode(edge, (), PathLeaf((), edge, cloud, *_join(edge, cloud), 0.0, True))
