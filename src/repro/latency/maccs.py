"""MACC (multiply-accumulate) counting — Eqns. 4 and 5 of the paper.

Most inference cost sits in convolutional and fully-connected layers::

    #MACC_conv = K × K × C_in × C_out × H_out × W_out          (Eqn. 4)
    #MACC_fc   = C_in × C_out                                  (Eqn. 5)

Other layer types (batch norm, pooling, dropout) "cost little time according
to our measurement and can be ignored" — they count zero here. Composite
layers introduced by compression (depthwise/pointwise, Fire, inverted
residual) are counted as the sum of their constituent convolutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..model.spec import LayerSpec, LayerType, ModelSpec, TensorShape


@dataclass(frozen=True)
class MaccEntry:
    """MACC count of one primitive (conv-like or FC) operation."""

    layer_index: int
    kind: str  # "conv" or "fc"
    kernel_size: int  # 0 for FC
    maccs: int
    bits: int = 32  # weight precision (8 after Q1 quantization)


def layer_maccs(
    layer: LayerSpec,
    in_shape: TensorShape,
    out_shape: TensorShape,
    layer_index: int = -1,
) -> List[MaccEntry]:
    """MACC entries contributed by one layer (may be several primitives)."""
    lt = layer.layer_type
    c_in = in_shape.channels
    entries: List[Tuple[str, int, int]] = []  # (kind, kernel, maccs)

    if lt == LayerType.CONV:
        k = layer.kernel_size
        maccs = (
            k * k * (c_in // layer.groups) * layer.out_channels
            * out_shape.height * out_shape.width
        )
        entries.append(("conv", k, maccs))
    elif lt == LayerType.DEPTHWISE_CONV:
        k = layer.kernel_size
        maccs = k * k * c_in * out_shape.height * out_shape.width
        entries.append(("conv", k, maccs))
    elif lt == LayerType.POINTWISE_CONV:
        maccs = c_in * layer.out_channels * out_shape.height * out_shape.width
        entries.append(("conv", 1, maccs))
    elif lt == LayerType.FC:
        if layer.rank > 0:
            dense = c_in * layer.rank + layer.rank * layer.out_channels
            entries.append(("fc", 0, int(dense * layer.sparsity)))
        else:
            entries.append(("fc", 0, c_in * layer.out_channels))
    elif lt == LayerType.FIRE:
        squeeze = max(1, int(round(c_in * layer.squeeze_ratio)))
        half = layer.out_channels // 2
        area = out_shape.height * out_shape.width
        entries.append(("conv", 1, c_in * squeeze * in_shape.height * in_shape.width))
        entries.append(("conv", 1, squeeze * half * area))
        entries.append(("conv", 3, 9 * squeeze * half * area))
    elif lt == LayerType.INVERTED_RESIDUAL:
        hidden = c_in * layer.expansion
        k = layer.kernel_size
        in_area = in_shape.height * in_shape.width
        out_area = out_shape.height * out_shape.width
        entries.append(("conv", 1, c_in * hidden * in_area))
        entries.append(("conv", k, k * k * hidden * out_area))
        entries.append(("conv", 1, hidden * layer.out_channels * out_area))
    # All remaining layer types contribute ~zero MACCs (Sec. V-B).

    return [
        MaccEntry(layer_index=layer_index, kind=kind, kernel_size=k, maccs=m, bits=layer.bits)
        for kind, k, m in entries
    ]


def model_macc_entries(spec: ModelSpec) -> Tuple[MaccEntry, ...]:
    """Per-primitive MACC entries for a whole model (layer indices filled).

    The entries depend only on the (immutable) spec, so they are computed
    once and cached on it.
    """
    entries = spec._macc_entries
    if entries is None:
        entries = spec._macc_entries = tuple(
            entry
            for i, layer in enumerate(spec.layers)
            for entry in layer_maccs(
                layer, spec.input_shape_of(i), spec.output_shape_of(i), i
            )
        )
    return entries


def total_maccs(spec: ModelSpec) -> int:
    """Total MACCs of a model spec (Eqns. 4 + 5 summed)."""
    return sum(entry.maccs for entry in model_macc_entries(spec))


def maccs_by_kernel(spec: ModelSpec) -> Dict[Tuple[str, int], int]:
    """Aggregate MACCs keyed by (kind, kernel size) — the latency-model axes."""
    totals: Dict[Tuple[str, int], int] = {}
    for entry in model_macc_entries(spec):
        key = (entry.kind, entry.kernel_size)
        totals[key] = totals.get(key, 0) + entry.maccs
    return totals
