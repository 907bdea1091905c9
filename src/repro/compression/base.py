"""Compression technique interface and registry (Table II of the paper).

Each technique replaces one layer's structure with a cheaper one::

    F1 (SVD)        m×n FC weight   -> m×k and k×n factors (k ≪ m)
    F2 (KSVD)       same as F1 with sparse factor matrices
    F3 (GAP)        FC stack        -> global average pooling (+ class head)
    C1 (MobileNet)  K×K conv        -> depthwise K×K + pointwise 1×1
    C2 (MobileNetV2) conv           -> inverted residual (expand/dw/project)
    C3 (SqueezeNet) conv            -> Fire layer
    W1 (Filter Pruning) conv        -> conv with insignificant filters pruned
    IDENTITY                        -> layer kept as-is (the "no-op" action)

A technique operates on :class:`~repro.model.spec.ModelSpec` structure; where
a faithful weight-level counterpart exists (SVD factorization, L1 filter
pruning), it also transforms a real trained network so composed models can
be fine-tuned rather than retrained (used by the trained accuracy
evaluator).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..model.spec import LayerSpec, LayerType, ModelSpec


class CompressionError(ValueError):
    """Raised when a technique is applied to a layer it cannot transform."""


class CompressionTechnique(abc.ABC):
    """One row of Table II."""

    #: Short identifier matching the paper ("F1", "C1", "W1", ...).
    name: str = ""
    #: Human-readable label ("SVD", "MobileNet", ...).
    label: str = ""
    #: Layer types this technique can replace.
    applicable_types: frozenset = frozenset()

    def applies_to(self, spec: ModelSpec, index: int) -> bool:
        """Whether this technique can transform layer ``index`` of ``spec``."""
        layer = spec[index]
        if layer.layer_type not in self.applicable_types:
            return False
        return self._applies_to(spec, index)

    def _applies_to(self, spec: ModelSpec, index: int) -> bool:
        return True

    @abc.abstractmethod
    def transform_layer(self, spec: ModelSpec, index: int) -> List[LayerSpec]:
        """Return the replacement layer sequence for layer ``index``."""

    def apply(self, spec: ModelSpec, index: int) -> ModelSpec:
        """Apply the technique to one layer, returning the new model spec."""
        if not self.applies_to(spec, index):
            raise CompressionError(
                f"{self.name} cannot be applied to layer {index} "
                f"({spec[index].layer_type})"
            )
        new_layers = self.transform_layer(spec, index)
        out = spec.replace_layer(index, new_layers)
        if out.output_shape != spec.output_shape:
            raise CompressionError(
                f"{self.name} changed the model output shape "
                f"({spec.output_shape} -> {out.output_shape})"
            )
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class IdentityCompression(CompressionTechnique):
    """Keep the layer unchanged — the controller's explicit no-op action."""

    name = "ID"
    label = "Identity"
    applicable_types = frozenset(LayerType)

    def transform_layer(self, spec: ModelSpec, index: int) -> List[LayerSpec]:
        return [spec[index]]


class TechniqueRegistry:
    """Named collection of techniques; the compression action space."""

    def __init__(self, techniques: Optional[Sequence[CompressionTechnique]] = None) -> None:
        self._techniques: Dict[str, CompressionTechnique] = {}
        # applicability() results by (input shape, layers, names).
        self._mask_cache: Dict[Tuple[object, ...], np.ndarray] = {}
        for technique in techniques or []:
            self.register(technique)

    def register(self, technique: CompressionTechnique) -> None:
        if technique.name in self._techniques:
            raise ValueError(f"duplicate technique name: {technique.name}")
        self._techniques[technique.name] = technique
        self._mask_cache.clear()

    def get(self, name: str) -> CompressionTechnique:
        try:
            return self._techniques[name]
        except KeyError:
            raise KeyError(
                f"unknown technique {name!r}; available: {sorted(self._techniques)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._techniques

    def __iter__(self):
        return iter(self._techniques.values())

    def __len__(self) -> int:
        return len(self._techniques)

    @property
    def names(self) -> List[str]:
        return list(self._techniques)

    def applicable(self, spec: ModelSpec, index: int) -> List[CompressionTechnique]:
        """Techniques applicable to layer ``index`` (identity always first)."""
        return [t for t in self._techniques.values() if t.applies_to(spec, index)]

    def applicability(self, spec: ModelSpec, names: Sequence[str]) -> np.ndarray:
        """(layers, len(names)) bool: technique ``names[j]`` applies to layer
        ``i`` — :meth:`applicable` for every layer at once. A name not in
        the registry applies nowhere.

        The mask is computed once per spec content and names, and the
        cached array is returned read-only. The key is the whole spec's
        content (input shape and layers), not a layer's: a rule may read
        neighbouring layers (a layer that is not the last, a GAP tail).
        Edge slices are new spec objects, so the spec object itself would
        almost never hit."""
        key = (spec.input_shape, spec.layers, tuple(names))
        cached = self._mask_cache.get(key)
        if cached is not None:
            return cached
        mask = np.zeros((len(spec), len(names)), dtype=bool)
        for j, name in enumerate(names):
            technique = self._techniques.get(name)
            if technique is None:
                continue
            for i in range(len(spec)):
                mask[i, j] = technique.applies_to(spec, i)
        mask.flags.writeable = False
        self._mask_cache[key] = mask
        return mask
