"""Layer-hyperparameter encodings consumed by the controllers.

Fig. 6 shows each DNN layer's hyperparameter string (Eqn. 1) entering the
bidirectional LSTM. Strings are embedded as fixed-width numeric vectors:
a one-hot over the layer-type vocabulary plus normalized geometry fields,
with the network bandwidth appended to every step so one controller serves
all K contexts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..model.spec import LayerSpec, LayerType, ModelSpec

_LAYER_TYPES: List[LayerType] = list(LayerType)
_TYPE_INDEX = {lt: i for i, lt in enumerate(_LAYER_TYPES)}

#: Width of one encoded layer (type one-hot + 8 numeric fields + bandwidth).
ENCODING_WIDTH = len(_LAYER_TYPES) + 9

_MAX_KERNEL = 11.0
_MAX_STRIDE = 4.0
_MAX_PADDING = 5.0
_LOG_MAX_CHANNELS = np.log(4097.0)
_LOG_MAX_BANDWIDTH = np.log(1001.0)  # Mbps


def encode_layer(layer: LayerSpec, bandwidth_mbps: float) -> np.ndarray:
    """Encode one layer + the context bandwidth as a feature vector."""
    vector = np.zeros(ENCODING_WIDTH)
    vector[_TYPE_INDEX[layer.layer_type]] = 1.0
    base = len(_LAYER_TYPES)
    vector[base + 0] = layer.kernel_size / _MAX_KERNEL
    vector[base + 1] = layer.stride / _MAX_STRIDE
    vector[base + 2] = layer.padding / _MAX_PADDING
    vector[base + 3] = np.log1p(layer.out_channels) / _LOG_MAX_CHANNELS
    vector[base + 4] = 1.0 if layer.groups > 1 else 0.0
    vector[base + 5] = layer.expansion / 4.0
    vector[base + 6] = layer.squeeze_ratio
    vector[base + 7] = layer.sparsity
    vector[base + 8] = _bandwidth_feature(bandwidth_mbps)
    return vector


def _bandwidth_feature(bandwidth_mbps: float) -> float:
    return np.log1p(max(bandwidth_mbps, 0.0)) / _LOG_MAX_BANDWIDTH


def encode_model(spec_or_layers, bandwidth_mbps: float) -> np.ndarray:
    """Encode a model spec (or layer sequence) as a (1, T, F) batch."""
    layers: Sequence[LayerSpec]
    if isinstance(spec_or_layers, ModelSpec):
        layers = spec_or_layers.layers
    else:
        layers = list(spec_or_layers)
    if not layers:
        raise ValueError("cannot encode an empty layer sequence")
    encoded = np.stack([encode_layer(layer, bandwidth_mbps) for layer in layers])
    return encoded[None, :, :]


class LayerEncoder:
    """:func:`encode_model` for batches, with each layer's row computed once.

    A :class:`LayerSpec` is frozen, so its encoding never changes except
    for the bandwidth column. The encoder keeps each distinct layer's row
    (keyed by the layer's content, :attr:`LayerSpec.fingerprint_json`),
    read-only and with a zero bandwidth column, and per call only copies
    the rows into a fresh array and writes the bandwidth column. Each
    controller owns one, so the cache lives as long as its controller.
    """

    def __init__(self) -> None:
        self._rows: Dict[str, np.ndarray] = {}

    def row(self, layer: LayerSpec) -> np.ndarray:
        """``encode_layer(layer, 0.0)``, cached and read-only."""
        key = layer.fingerprint_json
        row = self._rows.get(key)
        if row is None:
            row = encode_layer(layer, 0.0)
            row.flags.writeable = False
            self._rows[key] = row
        return row

    def encode(
        self, specs: Sequence[ModelSpec], bandwidths_mbps: Sequence[float]
    ) -> np.ndarray:
        """(N, T, F): request ``i`` is ``encode_model(specs[i], bandwidths_mbps[i])[0]``.

        The specs must have equal, non-zero length.
        """
        if not all(len(spec) for spec in specs):
            raise ValueError("cannot encode an empty layer sequence")
        encoded = np.array([[self.row(layer) for layer in spec.layers] for spec in specs])
        encoded[..., -1] = np.array(
            [_bandwidth_feature(bw) for bw in bandwidths_mbps]
        )[:, None]
        return encoded
