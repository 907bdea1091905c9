"""Structural model descriptions: layer/model specs and block slicing."""

from .dag import (
    INPUT,
    DagModel,
    DagPartition,
    chain_dag,
    dag_surgery,
    evaluate_dag_partition,
    resnet_dag,
)
from .blocks import BlockSpec, concatenate_blocks, slice_into_blocks
from .spec import (
    BYTES_PER_VALUE,
    COMPRESSIBLE_LAYER_TYPES,
    COMPUTE_LAYER_TYPES,
    LayerSpec,
    LayerType,
    ModelSpec,
    TensorShape,
    compute_fingerprint,
    infer_output_shape,
    layer_parameter_count,
)

__all__ = [
    "INPUT",
    "DagModel",
    "DagPartition",
    "chain_dag",
    "dag_surgery",
    "evaluate_dag_partition",
    "resnet_dag",
    "BlockSpec",
    "concatenate_blocks",
    "slice_into_blocks",
    "BYTES_PER_VALUE",
    "COMPRESSIBLE_LAYER_TYPES",
    "COMPUTE_LAYER_TYPES",
    "LayerSpec",
    "LayerType",
    "ModelSpec",
    "TensorShape",
    "compute_fingerprint",
    "infer_output_shape",
    "layer_parameter_count",
]
