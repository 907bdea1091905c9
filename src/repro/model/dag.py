"""DAG-structured models — the general case of Dynamic DNN Surgery.

The paper's evaluation uses chain DNNs (VGG11, AlexNet), but its baseline
(Hu et al.) and its Eqn. 1 extension ("the starting and terminal layer of a
skip connection in ResNet") are defined on Directed Acyclic Graphs. This
module provides that generality:

- :class:`DagModel`: layers as graph nodes, activations as edges, with
  ``add``-merge joins (residual connections) and full shape inference;
- :func:`dag_surgery`: the min-cut partition over the DAG — cutting inside
  a residual block pays for *both* crossing activations, which is exactly
  what makes DAG partitioning harder than chain partitioning;
- :func:`resnet_dag`: a small residual network builder for tests/examples.

Placement semantics of a cut: edge-side nodes run on the device, cloud-side
nodes on the server; every activation crossing the cut is transferred once.
Compute is sequential per side (single device / single server), so total
latency = Σ edge node latencies + Σ crossing transfers + Σ cloud latencies —
the quantity the min-cut minimizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import networkx as nx

from ..latency.compute import LatencyEstimator
from ..latency.devices import DeviceProfile
from .spec import LayerSpec, LayerType, TensorShape, infer_output_shape

INPUT = "__input__"  #: pseudo-node representing the model input


class DagModel:
    """A DAG of layers; multi-input nodes are elementwise ``add`` merges."""

    def __init__(self, input_shape: TensorShape, name: str = "dag") -> None:
        self.graph = nx.DiGraph()
        self.graph.add_node(INPUT)
        self.input_shape = input_shape
        self.name = name
        self._shapes: Dict[str, TensorShape] = {INPUT: input_shape}
        self._layers: Dict[str, LayerSpec] = {}

    # -- construction ------------------------------------------------------
    def add_layer(
        self, node_id: str, layer: LayerSpec, inputs: Sequence[str]
    ) -> str:
        """Append a layer consuming the listed nodes' outputs.

        With several inputs the activations are summed (residual add), so
        their shapes must agree.
        """
        if node_id in self._layers or node_id == INPUT:
            raise ValueError(f"duplicate node id {node_id!r}")
        if not inputs:
            raise ValueError("every layer needs at least one input")
        shapes = []
        for parent in inputs:
            if parent not in self._shapes:
                raise ValueError(f"unknown input node {parent!r}")
            shapes.append(self._shapes[parent])
        if len(set(shapes)) > 1:
            raise ValueError(
                f"add-merge inputs of {node_id!r} have mismatched shapes: {shapes}"
            )
        out_shape = infer_output_shape(layer, shapes[0])
        self._layers[node_id] = layer
        self._shapes[node_id] = out_shape
        self.graph.add_node(node_id)
        for parent in inputs:
            self.graph.add_edge(parent, node_id)
        return node_id

    # -- introspection ----------------------------------------------------
    @property
    def layer_ids(self) -> List[str]:
        return [n for n in nx.topological_sort(self.graph) if n != INPUT]

    def layer(self, node_id: str) -> LayerSpec:
        return self._layers[node_id]

    def output_shape_of(self, node_id: str) -> TensorShape:
        return self._shapes[node_id]

    def input_shape_of(self, node_id: str) -> TensorShape:
        parent = next(iter(self.graph.predecessors(node_id)))
        return self._shapes[parent]

    @property
    def output_ids(self) -> List[str]:
        return [
            n
            for n in self.graph.nodes
            if n != INPUT and self.graph.out_degree(n) == 0
        ]

    def __len__(self) -> int:
        return len(self._layers)

    def activation_bytes(self, node_id: str) -> int:
        return self._shapes[node_id].num_bytes


@dataclass(frozen=True)
class DagPartition:
    """A cut of the DAG: which layers stay on the edge."""

    edge_nodes: FrozenSet[str]
    cloud_nodes: FrozenSet[str]
    crossing_activations: Tuple[str, ...]  # producers whose output crosses
    edge_ms: float
    transfer_ms: float
    cloud_ms: float

    @property
    def total_ms(self) -> float:
        return self.edge_ms + self.transfer_ms + self.cloud_ms


def _node_latency_ms(dag: DagModel, node_id: str, device: DeviceProfile) -> float:
    return device.layer_latency_ms(
        dag.layer(node_id), dag.input_shape_of(node_id), dag.output_shape_of(node_id)
    )


def evaluate_dag_partition(
    dag: DagModel,
    edge_nodes: FrozenSet[str],
    estimator: LatencyEstimator,
    bandwidth_mbps: float,
) -> DagPartition:
    """Latency of an explicit edge/cloud node assignment."""
    cloud_nodes = frozenset(dag.layer_ids) - edge_nodes
    edge_ms = sum(
        _node_latency_ms(dag, n, estimator.edge) for n in edge_nodes
    )
    cloud_ms = sum(
        _node_latency_ms(dag, n, estimator.cloud) for n in cloud_nodes
    )
    crossing: List[str] = []
    side = {INPUT: "edge"}
    for node in dag.layer_ids:
        side[node] = "edge" if node in edge_nodes else "cloud"
    for producer, consumer in dag.graph.edges:
        if side[producer] != side[consumer]:
            crossing.append(producer)
    # An activation crossing to several consumers is shipped once.
    unique_crossing = tuple(dict.fromkeys(crossing))
    transfer_ms = sum(
        estimator.transfer.latency_ms(
            dag.input_shape.num_bytes if producer == INPUT
            else dag.activation_bytes(producer),
            bandwidth_mbps,
        )
        for producer in unique_crossing
    )
    return DagPartition(
        edge_nodes=edge_nodes,
        cloud_nodes=cloud_nodes,
        crossing_activations=unique_crossing,
        edge_ms=edge_ms,
        transfer_ms=transfer_ms,
        cloud_ms=cloud_ms,
    )


def dag_surgery(
    dag: DagModel, estimator: LatencyEstimator, bandwidth_mbps: float
) -> DagPartition:
    """Min-cut partition of a DAG model (Dynamic DNN Surgery, general case).

    Construction mirrors the chain version: ``cap(s, v)`` is v's cloud
    compute time (paid when v lands cloud-side), ``cap(v, t)`` its edge
    time, and each activation edge carries the producer's transfer time in
    both directions. The model input is pinned to the edge.
    """
    graph = nx.DiGraph()
    source, sink = "__s__", "__t__"
    for node in dag.layer_ids:
        graph.add_edge(
            source, node, capacity=_node_latency_ms(dag, node, estimator.cloud)
        )
        graph.add_edge(
            node, sink, capacity=_node_latency_ms(dag, node, estimator.edge)
        )
    graph.add_edge(source, INPUT, capacity=float("inf"))
    for producer, consumer in dag.graph.edges:
        size = (
            dag.input_shape.num_bytes
            if producer == INPUT
            else dag.activation_bytes(producer)
        )
        cost = estimator.transfer.latency_ms(size, bandwidth_mbps)
        # NOTE: per-edge capacities slightly over-charge an activation that
        # crosses to multiple consumers (it is shipped once); the evaluation
        # below uses the exact cost, and the approximation only matters for
        # fan-out > 1 across the cut.
        graph.add_edge(producer, consumer, capacity=cost)
        graph.add_edge(consumer, producer, capacity=cost)

    _, (edge_side, _) = nx.minimum_cut(graph, source, sink)
    edge_nodes = frozenset(n for n in dag.layer_ids if n in edge_side)
    return evaluate_dag_partition(dag, edge_nodes, estimator, bandwidth_mbps)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------
def chain_dag(layers: Sequence[LayerSpec], input_shape: TensorShape) -> DagModel:
    """A chain expressed as a DAG (for equivalence tests)."""
    dag = DagModel(input_shape, name="chain")
    previous = INPUT
    for i, layer in enumerate(layers):
        previous = dag.add_layer(f"l{i}", layer, [previous])
    return dag


def resnet_dag(
    input_shape: TensorShape = TensorShape(3, 32, 32),
    num_classes: int = 10,
    blocks_per_stage: int = 2,
    width: int = 16,
) -> DagModel:
    """A small residual network with genuine skip connections."""
    dag = DagModel(input_shape, name="resnet_dag")
    current = dag.add_layer(
        "stem", LayerSpec(LayerType.CONV, 3, 1, 1, width), [INPUT]
    )
    channels = width
    block = 0
    for stage, stage_channels in enumerate((width, width * 2)):
        for _ in range(blocks_per_stage):
            stride = 2 if (stage > 0 and block % blocks_per_stage == 0) else 1
            changes_shape = stride != 1 or stage_channels != channels
            conv1 = dag.add_layer(
                f"b{block}_conv1",
                LayerSpec(LayerType.CONV, 3, stride, 1, stage_channels),
                [current],
            )
            conv2 = dag.add_layer(
                f"b{block}_conv2",
                LayerSpec(LayerType.CONV, 3, 1, 1, stage_channels),
                [conv1],
            )
            if changes_shape:
                # Projection shortcut keeps the add-merge shapes aligned.
                shortcut = dag.add_layer(
                    f"b{block}_proj",
                    LayerSpec(LayerType.CONV, 1, stride, 0, stage_channels),
                    [current],
                )
            else:
                shortcut = current
            current = dag.add_layer(
                f"b{block}_add",
                LayerSpec(LayerType.RELU),
                [conv2, shortcut],
            )
            channels = stage_channels
            block += 1
    pooled = dag.add_layer("gap", LayerSpec(LayerType.GLOBAL_AVG_POOL), [current])
    dag.add_layer("fc", LayerSpec(LayerType.FC, 0, 1, 0, num_classes), [pooled])
    return dag
