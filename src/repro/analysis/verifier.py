"""Static verification rules for every searchable artifact.

The search operates on structure (:class:`~repro.model.spec.ModelSpec`,
compression plans, the Alg. 3 model tree), which means a whole class of
bugs is detectable *before* any weights are materialized or an emulation
clock runs. Each ``verify_*`` function walks one artifact kind and returns
:class:`~repro.analysis.diagnostics.Diagnostic` findings — it never raises
on a malformed artifact and never executes anything.

Rule ids
--------
- ``artifact-format``  — structurally unparseable artifact (missing keys,
  wrong types, a layer dict that cannot become a :class:`LayerSpec`);
- ``shape-flow``       — shape inference breaks inside a spec, or the
  edge/cloud boundary shapes of a split disagree;
- ``partition-range``  — a cut index outside ``[0, len(base)]``;
- ``fused-cut``        — a cut inside a fused pair (depthwise conv split
  from its pointwise half, or a batch-norm split from its conv);
- ``plan-length``      — a compression plan whose length does not match
  its model;
- ``technique-unknown``— a plan entry naming a technique the registry does
  not know;
- ``technique-apply``  — a plan entry whose technique does not apply to
  its layer (skipped at apply time, so a warning);
- ``fork-cover``       — bandwidth types whose nearest-match intervals
  fail to partition [0, inf): empty, non-positive, duplicated or unsorted;
- ``tree-arity``       — tree structure violating the N-depth/K-fork
  contract (wrong child count, fork/block index mismatch, early leaf);
- ``tree-path``        — a runtime-reachable root-to-terminal path that
  does not compose into a valid model matching the base interface. The
  findings are the path faults of :func:`~repro.model.treepath.compile_tree`,
  the one compiler the runtime also runs, so an admitted tree is a
  compiled one;
- ``memo-key``         — two distinct (edge, cloud, bandwidth) candidates
  that collide on the memoization-pool key. The pool keys on the exact
  bandwidth float (no rounding), so a collision can only come from a
  fingerprint collision between structurally different specs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..model.spec import (
    LayerSpec,
    LayerType,
    ModelSpec,
    TensorShape,
    infer_output_shape,
    tensor_shape_from_dict,
)
from ..model.treepath import CompiledTree, compile_tree
from .diagnostics import Diagnostic, Severity

SpecLike = Union[ModelSpec, Mapping]

#: Bandwidth types closer than 1e-<this> Mbps are flagged as practically
#: indistinguishable (the memo pool itself keys on the *exact* float and
#: never rounds — see ``repro.perf.MemoPool`` / ``SearchContext.evaluate``).
MEMO_BANDWIDTH_DECIMALS = 3

#: (earlier layer, later layer) pairs that must not be separated by a cut.
_FUSED_PAIRS: Tuple[Tuple[LayerType, LayerType], ...] = (
    (LayerType.DEPTHWISE_CONV, LayerType.POINTWISE_CONV),  # C1 expansion pair
    (LayerType.CONV, LayerType.BATCH_NORM),  # BN folds into its conv
    (LayerType.DEPTHWISE_CONV, LayerType.BATCH_NORM),
    (LayerType.POINTWISE_CONV, LayerType.BATCH_NORM),
)


def _diag(
    rule: str, severity: Severity, location: str, message: str, hint: Optional[str] = None
) -> Diagnostic:
    return Diagnostic(rule, severity, location, message, hint)


# ---------------------------------------------------------------------------
# Model specs
# ---------------------------------------------------------------------------
def _chain_shapes(
    layers: Sequence[LayerSpec],
    input_shape: TensorShape,
    location: str,
    diagnostics: List[Diagnostic],
) -> Optional[TensorShape]:
    """Run shape inference layer by layer; report the first break."""
    shape = input_shape
    for i, layer in enumerate(layers):
        try:
            shape = infer_output_shape(layer, shape)
        except ValueError as exc:
            diagnostics.append(
                _diag(
                    "shape-flow",
                    Severity.ERROR,
                    f"{location}, layer {i}",
                    f"shape inference failed at {layer.layer_type}: {exc}",
                    hint="fix the layer geometry or the preceding layers",
                )
            )
            return None
    return shape


def _parse_spec(
    data: Mapping, location: str, diagnostics: List[Diagnostic]
) -> Optional[ModelSpec]:
    """Tolerantly build a ModelSpec from a dict, reporting instead of raising."""
    try:
        raw_shape = data["input_shape"]
        raw_layers = data["layers"]
    except (KeyError, TypeError):
        diagnostics.append(
            _diag(
                "artifact-format",
                Severity.ERROR,
                location,
                "spec dict must have 'input_shape' and 'layers' keys",
            )
        )
        return None
    try:
        input_shape = tensor_shape_from_dict(raw_shape)
    except (TypeError, ValueError):
        diagnostics.append(
            _diag(
                "artifact-format",
                Severity.ERROR,
                location,
                f"invalid input_shape: {raw_shape!r}",
            )
        )
        return None
    if not isinstance(raw_layers, Sequence) or isinstance(raw_layers, (str, bytes)):
        diagnostics.append(
            _diag(
                "artifact-format",
                Severity.ERROR,
                location,
                f"'layers' must be a list, got {type(raw_layers).__name__}",
            )
        )
        return None
    layers: List[LayerSpec] = []
    for i, raw in enumerate(raw_layers):
        try:
            layers.append(LayerSpec.from_dict(raw))
        except (KeyError, TypeError, ValueError) as exc:
            diagnostics.append(
                _diag(
                    "artifact-format",
                    Severity.ERROR,
                    f"{location}, layer {i}",
                    f"cannot parse layer: {exc}",
                )
            )
            return None
    out = _chain_shapes(layers, input_shape, location, diagnostics)
    if out is None:
        return None
    return ModelSpec(layers, input_shape, name=str(data.get("name", "model")))


def verify_model_spec(spec: SpecLike, location: str = "model") -> List[Diagnostic]:
    """Verify one model spec (object or serialized dict)."""
    diagnostics: List[Diagnostic] = []
    if isinstance(spec, ModelSpec):
        # A constructed ModelSpec already ran eager shape inference; re-walk
        # so callers get diagnostics rather than trusting the invariant.
        _chain_shapes(spec.layers, spec.input_shape, location, diagnostics)
    else:
        _parse_spec(spec, location, diagnostics)
    return diagnostics


def _coerce_spec(
    spec: Optional[SpecLike], location: str, diagnostics: List[Diagnostic]
) -> Optional[ModelSpec]:
    if spec is None:
        return None
    if isinstance(spec, ModelSpec):
        return spec
    return _parse_spec(spec, location, diagnostics)


# ---------------------------------------------------------------------------
# Splits and candidates
# ---------------------------------------------------------------------------
def verify_split(
    edge_spec: Optional[ModelSpec],
    cloud_spec: Optional[ModelSpec],
    base: Optional[ModelSpec] = None,
    location: str = "split",
) -> List[Diagnostic]:
    """Verify an (edge, cloud) split: boundary shapes, fused seams, output."""
    diagnostics: List[Diagnostic] = []
    edge = edge_spec if edge_spec is not None and len(edge_spec) else None
    cloud = cloud_spec if cloud_spec is not None and len(cloud_spec) else None
    if edge is None and cloud is None:
        diagnostics.append(
            _diag(
                "shape-flow",
                Severity.ERROR,
                location,
                "split has neither an edge nor a cloud model",
                hint="at least one side must hold layers",
            )
        )
        return diagnostics
    if edge is not None and cloud is not None:
        if edge.output_shape != cloud.input_shape:
            diagnostics.append(
                _diag(
                    "shape-flow",
                    Severity.ERROR,
                    location,
                    f"edge output {edge.output_shape} does not match "
                    f"cloud input {cloud.input_shape}",
                    hint="the partition boundary must preserve the activation shape",
                )
            )
        seam = (edge.layers[-1].layer_type, cloud.layers[0].layer_type)
        if seam in _FUSED_PAIRS:
            diagnostics.append(
                _diag(
                    "fused-cut",
                    Severity.ERROR,
                    location,
                    f"partition separates fused pair {seam[0]} -> {seam[1]}",
                    hint="move the cut outside the fused block",
                )
            )
    if base is not None:
        final = cloud.output_shape if cloud is not None else edge.output_shape  # type: ignore[union-attr]
        if final != base.output_shape:
            diagnostics.append(
                _diag(
                    "shape-flow",
                    Severity.ERROR,
                    location,
                    f"composed output {final} does not match base output "
                    f"{base.output_shape}",
                    hint="a split must preserve the base model's output interface",
                )
            )
    return diagnostics


def verify_candidate(
    edge_spec: Optional[ModelSpec],
    cloud_spec: Optional[ModelSpec],
    base: Optional[ModelSpec] = None,
) -> List[Diagnostic]:
    """Verify one search candidate — what ``SearchContext.evaluate`` sees."""
    diagnostics: List[Diagnostic] = []
    if edge_spec is not None:
        diagnostics += verify_model_spec(edge_spec, location="edge")
    if cloud_spec is not None:
        diagnostics += verify_model_spec(cloud_spec, location="cloud")
    diagnostics += verify_split(edge_spec, cloud_spec, base=base, location="candidate")
    return diagnostics


# ---------------------------------------------------------------------------
# Partition points and compression plans
# ---------------------------------------------------------------------------
def verify_partition_point(
    base: ModelSpec, cut: int, location: Optional[str] = None
) -> List[Diagnostic]:
    """Verify a cut index against the base model it partitions."""
    where = location or f"cut {cut}"
    diagnostics: List[Diagnostic] = []
    if not 0 <= cut <= len(base):
        diagnostics.append(
            _diag(
                "partition-range",
                Severity.ERROR,
                where,
                f"cut index {cut} outside [0, {len(base)}]",
                hint="the edge keeps layers [0, cut); cut may equal len(base)",
            )
        )
        return diagnostics
    if 0 < cut < len(base):
        seam = (base[cut - 1].layer_type, base[cut].layer_type)
        if seam in _FUSED_PAIRS:
            diagnostics.append(
                _diag(
                    "fused-cut",
                    Severity.ERROR,
                    where,
                    f"cut separates fused pair {seam[0]} -> {seam[1]}",
                    hint="move the cut outside the fused block",
                )
            )
    return diagnostics


def verify_compression_plan(
    spec: ModelSpec,
    names: Sequence[str],
    registry,
    location: str = "plan",
) -> List[Diagnostic]:
    """Verify one technique-per-layer plan against its target spec."""
    diagnostics: List[Diagnostic] = []
    if len(names) != len(spec):
        diagnostics.append(
            _diag(
                "plan-length",
                Severity.ERROR,
                location,
                f"plan has {len(names)} entries for a {len(spec)}-layer model",
                hint="emit exactly one technique (or 'ID') per layer",
            )
        )
        return diagnostics
    for i, name in enumerate(names):
        if name == "ID":
            continue
        if name not in registry:
            diagnostics.append(
                _diag(
                    "technique-unknown",
                    Severity.ERROR,
                    f"{location}, layer {i}",
                    f"unknown technique {name!r}",
                    hint=f"available: {sorted(registry.names)}",
                )
            )
            continue
        if not registry.get(name).applies_to(spec, i):
            diagnostics.append(
                _diag(
                    "technique-apply",
                    Severity.WARNING,
                    f"{location}, layer {i}",
                    f"{name} does not apply to {spec[i].layer_type}; "
                    "it will be skipped at apply time",
                    hint="use 'ID' for layers the technique cannot transform",
                )
            )
    return diagnostics


def verify_branch_plan(base: ModelSpec, plan, registry) -> List[Diagnostic]:
    """Verify a whole-model :class:`~repro.search.branch.BranchPlan`."""
    diagnostics = verify_partition_point(
        base, plan.partition_index, location="branch plan"
    )
    if diagnostics:
        return diagnostics
    cut = plan.partition_index
    if cut == 0:
        if plan.compression:
            diagnostics.append(
                _diag(
                    "plan-length",
                    Severity.WARNING,
                    "branch plan",
                    "cloud-only plan carries compression entries that can never apply",
                )
            )
        return diagnostics
    edge = base.slice(0, cut)
    diagnostics += verify_compression_plan(
        edge, list(plan.compression)[:cut], registry, location="branch plan"
    )
    if len(plan.compression) != cut:
        diagnostics.append(
            _diag(
                "plan-length",
                Severity.ERROR,
                "branch plan",
                f"compression covers {len(plan.compression)} layers but the "
                f"edge half has {cut}",
                hint="one entry per edge base layer",
            )
        )
    return diagnostics


def verify_fixed_plan(plan, base: Optional[ModelSpec] = None) -> List[Diagnostic]:
    """Verify a runtime :class:`~repro.runtime.engine.FixedPlan`."""
    return verify_candidate(plan.edge_spec, plan.cloud_spec, base=base)


# ---------------------------------------------------------------------------
# Bandwidth forks
# ---------------------------------------------------------------------------
def verify_bandwidth_types(
    types: Sequence[float], location: str = "tree"
) -> List[Diagnostic]:
    """The K bandwidth types must induce a clean partition of [0, inf).

    Fork matching is nearest-type (`match_fork`), so the implied intervals
    are the Voronoi cells of the types: they cover [0, inf) with no gap or
    overlap exactly when the types are distinct. Duplicates collapse two
    forks onto one interval (overlap); an empty list leaves everything
    uncovered (gap).
    """
    diagnostics: List[Diagnostic] = []
    if not types:
        diagnostics.append(
            _diag(
                "fork-cover",
                Severity.ERROR,
                location,
                "no bandwidth types: fork intervals leave [0, inf) uncovered",
            )
        )
        return diagnostics
    for i, t in enumerate(types):
        if not t > 0:
            diagnostics.append(
                _diag(
                    "fork-cover",
                    Severity.ERROR,
                    f"{location}, type {i}",
                    f"bandwidth type {t} is not positive",
                )
            )
    seen: Dict[float, int] = {}
    for i, t in enumerate(types):
        if t in seen:
            diagnostics.append(
                _diag(
                    "fork-cover",
                    Severity.ERROR,
                    f"{location}, type {i}",
                    f"duplicate bandwidth type {t} (same as type {seen[t]}): "
                    "two forks share one interval",
                    hint="bandwidth types must be distinct",
                )
            )
        else:
            seen[t] = i
    if list(types) != sorted(types):
        diagnostics.append(
            _diag(
                "fork-cover",
                Severity.WARNING,
                location,
                f"bandwidth types {list(types)} are not ascending; fork k "
                "no longer corresponds to the k-th interval",
                hint="sort the types so fork order matches bandwidth order",
            )
        )
    rounded: Dict[float, int] = {}
    for i, t in enumerate(types):
        key = round(float(t), MEMO_BANDWIDTH_DECIMALS)
        if key in rounded and types[rounded[key]] != t:
            # The memo pool keys on the exact float, so this is no longer a
            # cache-correctness error — but two types under 0.5e-3 Mbps
            # apart induce forks no real measurement can tell apart.
            diagnostics.append(
                _diag(
                    "fork-cover",
                    Severity.WARNING,
                    f"{location}, type {i}",
                    f"bandwidth types {types[rounded[key]]} and {t} are "
                    f"within 1e-{MEMO_BANDWIDTH_DECIMALS} Mbps of each "
                    "other; their forks are practically indistinguishable",
                    hint="keep types at least 1e-3 Mbps apart",
                )
            )
        else:
            rounded.setdefault(key, i)
    return diagnostics


# ---------------------------------------------------------------------------
# Model trees
# ---------------------------------------------------------------------------
@dataclass
class _NodeView:
    """A serialized node, shaped like a ``TreeNode`` for the tree rules."""

    block_index: int
    fork_index: Optional[int]
    bandwidth_mbps: float
    edge_spec: Optional[ModelSpec]
    cloud_spec: Optional[ModelSpec]
    partitioned: bool
    children: List["_NodeView"] = field(default_factory=list)


def _view_from_dict(
    data: Mapping, location: str, diagnostics: List[Diagnostic]
) -> Optional[_NodeView]:
    try:
        block_index = int(data["block_index"])
        fork_index = data["fork_index"]
        bandwidth = float(data["bandwidth_mbps"])
        partitioned = bool(data["partitioned"])
        raw_children = data["children"]
        raw_edge = data["edge_spec"]
        raw_cloud = data["cloud_spec"]
    except (KeyError, TypeError, ValueError) as exc:
        diagnostics.append(
            _diag("artifact-format", Severity.ERROR, location, f"malformed node: {exc}")
        )
        return None
    if not isinstance(raw_children, (list, tuple)):
        message = f"'children' must be a list, got {type(raw_children).__name__}"
        diagnostics.append(_diag("artifact-format", Severity.ERROR, location, message))
        return None
    edge = _coerce_spec(raw_edge, f"{location} edge", diagnostics)
    cloud = _coerce_spec(raw_cloud, f"{location} cloud", diagnostics)
    if (raw_edge is not None and edge is None) or (raw_cloud is not None and cloud is None):
        # The format error stands for every path through this node:
        # verifying them without the block would report phantom breaks.
        return None
    children: List[_NodeView] = []
    for i, raw in enumerate(raw_children):
        child = _view_from_dict(raw, f"{location}>{i}", diagnostics)
        if child is None:
            return None
        children.append(child)
    return _NodeView(
        block_index=block_index,
        fork_index=fork_index,
        bandwidth_mbps=bandwidth,
        edge_spec=edge,
        cloud_spec=cloud,
        partitioned=partitioned,
        children=children,
    )


def _verify_tree_structure(
    root: _NodeView, num_blocks: int, fork_count: int
) -> List[Diagnostic]:
    """The N-depth/K-fork contract: arity, indices, termination."""
    diagnostics: List[Diagnostic] = []

    def walk(node: _NodeView, depth: int, location: str) -> None:
        if node.block_index != depth:
            diagnostics.append(
                _diag(
                    "tree-arity",
                    Severity.ERROR,
                    location,
                    f"node at depth {depth} claims block_index {node.block_index}",
                )
            )
        if depth >= num_blocks:
            diagnostics.append(
                _diag(
                    "tree-arity",
                    Severity.ERROR,
                    location,
                    f"depth {depth} exceeds the configured {num_blocks} blocks",
                )
            )
            return
        if node.partitioned:
            if node.children:
                diagnostics.append(
                    _diag(
                        "tree-arity",
                        Severity.ERROR,
                        location,
                        "partitioned node must be terminal but has children",
                    )
                )
            return
        if not node.children:
            if depth != num_blocks - 1:
                diagnostics.append(
                    _diag(
                        "tree-arity",
                        Severity.ERROR,
                        location,
                        f"unpartitioned leaf at depth {depth} of "
                        f"{num_blocks} blocks: later bandwidth intervals are "
                        "left without a fork",
                        hint="either partition here or fork into K children",
                    )
                )
            return
        if len(node.children) != fork_count:
            diagnostics.append(
                _diag(
                    "tree-arity",
                    Severity.ERROR,
                    location,
                    f"node has {len(node.children)} forks for {fork_count} "
                    "bandwidth types: some intervals have no child "
                    "(gap) or share one (overlap)",
                    hint="every non-terminal node needs exactly K children",
                )
            )
        for position, child in enumerate(node.children):
            if child.fork_index != position:
                diagnostics.append(
                    _diag(
                        "tree-arity",
                        Severity.ERROR,
                        f"{location}>{position}",
                        f"child at fork position {position} records "
                        f"fork_index {child.fork_index}",
                    )
                )
            walk(child, depth + 1, f"{location}>{position}")

    walk(root, 0, "node root")
    return diagnostics


def verify_memo_keys(
    candidates: Sequence[Tuple[Optional[ModelSpec], Optional[ModelSpec], float]],
    location: str = "memo pool",
) -> List[Diagnostic]:
    """No two distinct (edge, cloud, W) triples may share a pool key.

    Mirrors ``SearchContext.evaluate``'s key exactly: cached fingerprints
    plus the raw bandwidth float. Since nothing is rounded, a collision can
    only arise from two structurally different specs hashing to the same
    (truncated) fingerprint — vanishingly unlikely, but checked because a
    silent hit on a wrong key returns a wrong reward.
    """
    diagnostics: List[Diagnostic] = []
    seen: Dict[Tuple[str, str, float], Tuple[Tuple, int]] = {}
    for i, (edge, cloud, bandwidth) in enumerate(candidates):
        key = (
            edge.fingerprint() if edge is not None else "",
            cloud.fingerprint() if cloud is not None else "",
            float(bandwidth),
        )
        identity = (
            edge.layers if edge is not None else None,
            edge.input_shape if edge is not None else None,
            cloud.layers if cloud is not None else None,
            cloud.input_shape if cloud is not None else None,
            float(bandwidth),
        )
        if key in seen and seen[key][0] != identity:
            diagnostics.append(
                _diag(
                    "memo-key",
                    Severity.ERROR,
                    f"{location}, candidates {seen[key][1]} and {i}",
                    "distinct (edge, cloud, bandwidth) candidates share a "
                    f"memoization key {key}",
                    hint="the pool would silently return the wrong result",
                )
            )
        else:
            seen.setdefault(key, (identity, i))
    return diagnostics


def compile_and_verify_tree(tree) -> Tuple[Optional[CompiledTree], List[Diagnostic]]:
    """Verify a model tree (a ``ModelTree`` or its serialized dict).

    Runs every tree rule: fork coverage, the N-depth/K-fork structure
    contract, then one :func:`~repro.model.treepath.compile_tree`, whose
    path faults are the ``tree-path`` findings and whose sound leaves are
    the memo-key corpus. Returns (the records, or None when the tree is
    too malformed to compile; the findings).
    """
    diagnostics: List[Diagnostic] = []
    if isinstance(tree, Mapping):
        fmt = tree.get("format")
        if fmt != "repro.model_tree.v1":
            diagnostics.append(
                _diag(
                    "artifact-format",
                    Severity.ERROR,
                    "tree",
                    f"unsupported tree format: {fmt!r}",
                )
            )
            return None, diagnostics
        try:
            raw_types = [float(t) for t in tree["bandwidth_types"]]
            num_blocks = int(tree["num_blocks"])
            raw_base = tree["base"]
            raw_root = tree["root"]
        except (KeyError, TypeError, ValueError) as exc:
            diagnostics.append(
                _diag("artifact-format", Severity.ERROR, "tree", f"malformed tree: {exc}")
            )
            return None, diagnostics
        if raw_base is None:
            diagnostics.append(
                _diag("artifact-format", Severity.ERROR, "base", "tree has no base model")
            )
        base = _coerce_spec(raw_base, "base", diagnostics)
        root = _view_from_dict(raw_root, "node root", diagnostics)
        types = raw_types
    else:
        base = tree.base
        types = list(tree.bandwidth_types)
        num_blocks = tree.num_blocks
        root = tree.root

    diagnostics += verify_bandwidth_types(types)
    if root is None or base is None:
        return None, diagnostics
    diagnostics += _verify_tree_structure(root, num_blocks, len(types))
    compiled = compile_tree(root, base)
    diagnostics += [
        _diag("tree-path", Severity.ERROR, fault.location, fault.message, fault.hint)
        for fault in compiled.faults
    ]
    diagnostics += verify_memo_keys(
        [
            (leaf.edge_spec, leaf.cloud_spec, leaf.bandwidth_mbps)
            for leaf in compiled.leaves
            if leaf.sound
        ]
    )
    return compiled, diagnostics


def verify_tree(tree) -> List[Diagnostic]:
    """Verify a model tree (a ``ModelTree`` or its serialized dict)."""
    return compile_and_verify_tree(tree)[1]
