"""Oracle: the tree-path composition as it ran before the one compiler.

Verbatim copies of the verifier's path rule (``_verify_tree_paths`` and
its location helper) and of Alg. 2's ``compose_from_tree`` walk, from
before every consumer read :func:`repro.model.treepath.compile_tree`'s
records. They share no code with the compiler, so tests check it, the
runtime walk and the new ``compose_from_tree`` against them.
"""

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.model.spec import ModelSpec
from repro.search.compose import match_fork

_NodeView = object  # any node-shaped object: TreeNode or the verifier's view


def _diag(
    rule: str, severity: Severity, location: str, message: str, hint: Optional[str] = None
) -> Diagnostic:
    return Diagnostic(rule, severity, location, message, hint)


def _path_location(path: Sequence[_NodeView]) -> str:
    forks = [str(node.fork_index) for node in path[1:]]
    return "path root" + ("" if not forks else ">" + ">".join(forks))


def _verify_tree_paths(
    root: _NodeView, base: ModelSpec
) -> Tuple[List[Diagnostic], List[Tuple[Optional[ModelSpec], Optional[ModelSpec], float]]]:
    """Compose every root-to-terminal path and check its shape flow.

    Returns (diagnostics, candidates): the composed (edge, cloud, bandwidth)
    triple of each path that composed cleanly — the corpus for the
    memoization-key integrity check.
    """
    diagnostics: List[Diagnostic] = []
    candidates: List[Tuple[Optional[ModelSpec], Optional[ModelSpec], float]] = []

    def walk(node: _NodeView, path: List[_NodeView], edge: Optional[ModelSpec]) -> None:
        path = path + [node]
        where = _path_location(path)
        if node.edge_spec is not None and len(node.edge_spec):
            expected = edge.output_shape if edge is not None else base.input_shape
            if node.edge_spec.input_shape != expected:
                diagnostics.append(
                    _diag(
                        "tree-path",
                        Severity.ERROR,
                        where,
                        f"block {node.block_index} edge input "
                        f"{node.edge_spec.input_shape} does not continue the "
                        f"path (expected {expected})",
                        hint="consecutive edge blocks must chain shapes",
                    )
                )
                # The downstream shapes of this subtree are unknowable.
                return
            edge = (
                node.edge_spec if edge is None else edge.concatenate(node.edge_spec)
            )
        if not node.partitioned and node.children:
            for child in node.children:
                walk(child, path, edge)
            return
        cloud = (
            node.cloud_spec
            if node.cloud_spec is not None and len(node.cloud_spec)
            else None
        )
        if edge is None and cloud is None:
            diagnostics.append(
                _diag(
                    "tree-path",
                    Severity.ERROR,
                    where,
                    "terminal path composes to an empty model",
                )
            )
            return
        if cloud is not None:
            boundary = edge.output_shape if edge is not None else base.input_shape
            if cloud.input_shape != boundary:
                diagnostics.append(
                    _diag(
                        "tree-path",
                        Severity.ERROR,
                        where,
                        f"cloud input {cloud.input_shape} does not match the "
                        f"edge output {boundary} at the partition boundary",
                    )
                )
                return
        final = cloud.output_shape if cloud is not None else edge.output_shape  # type: ignore[union-attr]
        if final != base.output_shape:
            diagnostics.append(
                _diag(
                    "tree-path",
                    Severity.ERROR,
                    where,
                    f"path output {final} does not match base output "
                    f"{base.output_shape}",
                    hint="every runtime-reachable path must keep the base interface",
                )
            )
            return
        candidates.append((edge, cloud, node.bandwidth_mbps))

    walk(root, [], None)
    return diagnostics, candidates


@dataclass(frozen=True)
class ComposedModel:
    """The result of one Alg. 2 walk."""

    path: Tuple
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


def compose_from_tree(tree, probe: Callable[[int], float]) -> ComposedModel:
    node = tree.root
    path: List = [node]
    measured: List[float] = []
    edge_parts: List[ModelSpec] = []

    while True:
        if node.edge_spec is not None and len(node.edge_spec):
            edge_parts.append(node.edge_spec)
        if node.partitioned or not node.children:
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
