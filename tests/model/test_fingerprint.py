"""Spec fingerprints: pinned hex values and the serializer they hash.

The memo pool keys on :meth:`ModelSpec.fingerprint`, serialized tree
artifacts are stamped with it, and the accuracy surrogate seeds its
jitter from the hex value. So the fingerprint of every structure is part
of the seeded results: these tests pin literal values and prove that the
cached-fragment payload is byte-identical to serializing the whole spec.
"""

import dataclasses
import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import extended_registry
from repro.model.spec import (
    LayerSpec,
    LayerType,
    ModelSpec,
    TensorShape,
    compute_fingerprint,
)
from repro.nn.zoo import BASE_MODELS, alexnet, resnet50, vgg11


def _legacy_layer_dict(layer):
    """The original ``LayerSpec.to_dict``: ``asdict`` with the type's value."""
    data = dataclasses.asdict(layer)
    data["layer_type"] = layer.layer_type.value
    return data


def serialized_fingerprint(spec):
    """The whole-spec serializer the fingerprint is defined by."""
    payload = json.dumps(
        {
            "input": dataclasses.asdict(spec.input_shape),
            "layers": [_legacy_layer_dict(layer) for layer in spec.layers],
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


BASE_FINGERPRINTS = {
    "vgg11": "e753dde466b9aa16",
    "vgg19": "4ffbf9e225440f36",
    "alexnet": "5c4b77a37e04241b",
    "resnet50": "4371f124e060527e",
    "resnet101": "ad0aa8d38e5af7b2",
    "resnet152": "37b32dc587abffb9",
    "tiny_cnn": "d9fb38f2a07614e1",
}

SLICE_FINGERPRINTS = {
    ("vgg11", 0, 5): "71a40c761e68b8fe",
    ("vgg11", 5, None): "f1711fc6e5a8952e",
    ("resnet50", 3, 10): "3c41d56e16ef6d64",
    ("alexnet", 2, 2): "94dd4e577a8de86e",  # empty slice
}

#: One compressed variant per technique: (technique, model, layer index).
COMPRESSED_FINGERPRINTS = {
    ("F1", "vgg11", 22): "b2fd0c22fbba64c1",
    ("F2", "vgg11", 22): "ef7898cd303a05f6",
    ("F3", "alexnet", 15): "ac2de8cda8521018",
    ("C1", "vgg11", 0): "548fb759b3d67f5d",
    ("C2", "vgg11", 0): "e88b991e768d131b",
    ("C3", "vgg11", 0): "82cbf8b8b6e0acdf",
    ("W1", "vgg11", 0): "9455bdccadaf5369",
    ("Q1", "vgg11", 0): "afe17e1f789f212a",
}


class TestGoldenFingerprints:
    def test_pins_cover_every_base_model(self):
        assert set(BASE_FINGERPRINTS) == set(BASE_MODELS)

    @pytest.mark.parametrize("name", sorted(BASE_FINGERPRINTS))
    def test_base_model(self, name):
        assert BASE_MODELS[name]().fingerprint() == BASE_FINGERPRINTS[name]

    @pytest.mark.parametrize("key", sorted(SLICE_FINGERPRINTS, key=str))
    def test_slice(self, key):
        name, start, stop = key
        spec = BASE_MODELS[name]()
        sliced = spec.slice(start, len(spec) if stop is None else stop)
        assert sliced.fingerprint() == SLICE_FINGERPRINTS[key]

    def test_pins_cover_every_transforming_technique(self):
        names = {name for name, _, _ in COMPRESSED_FINGERPRINTS}
        assert names == set(extended_registry().names) - {"ID"}

    @pytest.mark.parametrize("key", sorted(COMPRESSED_FINGERPRINTS))
    def test_compressed_variant(self, key):
        technique, model, index = key
        compressed = extended_registry().get(technique).apply(
            BASE_MODELS[model](), index
        )
        assert compressed.fingerprint() == COMPRESSED_FINGERPRINTS[key]

    @pytest.mark.parametrize("build", [vgg11, alexnet, resnet50])
    def test_every_slice_matches_the_serializer(self, build):
        spec = build()
        for start in range(0, len(spec), 3):
            for stop in range(start, len(spec) + 1, 4):
                sliced = spec.slice(start, stop)
                assert compute_fingerprint(sliced) == serialized_fingerprint(sliced)


class TestCachedFragments:
    def test_fragment_leaves_equality_and_hash_alone(self):
        warm = LayerSpec(LayerType.CONV, 3, 1, 1, 16)
        cold = LayerSpec(LayerType.CONV, 3, 1, 1, 16)
        assert warm.fingerprint_json == json.dumps(warm.to_dict(), sort_keys=True)
        assert warm == cold and hash(warm) == hash(cold)
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)

    @pytest.mark.parametrize(
        "changes",
        [
            {"dropout_p": float("inf")},
            {"squeeze_ratio": float("-inf")},
            {"dropout_p": float("nan")},
            {"squeeze_ratio": -0.0},
            {"dropout_p": 1e-300, "squeeze_ratio": 1e22},
            {"rank": 2**70, "groups": -3},
            {"bits": True},
            {"expansion": 2.0},
        ],
        ids=repr,
    )
    def test_fragment_edge_values_match_json(self, changes):
        """Non-finite floats and non-``int``/``float`` values take the
        ``json.dumps`` fallback; every other value is ``repr``-exact."""
        layer = LayerSpec(LayerType.CONV, 3, 1, 1, 16).replace(**changes)
        assert layer.fingerprint_json == json.dumps(
            _legacy_layer_dict(layer), sort_keys=True
        )

    def test_fragment_survives_pickling(self):
        spec = vgg11()
        spec.fingerprint()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.fingerprint() == BASE_FINGERPRINTS["vgg11"]
        assert clone.layers[0].fingerprint_json == spec.layers[0].fingerprint_json

    def test_replace_does_not_inherit_fragment(self):
        layer = LayerSpec(LayerType.CONV, 3, 1, 1, 16)
        layer.fingerprint_json
        wider = layer.replace(out_channels=32)
        assert '"out_channels": 32' in wider.fingerprint_json


# ---------------------------------------------------------------------------
# Property: the fast path is the serializer, and equal structure <=> equal key
# ---------------------------------------------------------------------------
_ratios = st.sampled_from([0.0, 0.1, 0.125, 0.25, 1 / 3, 0.5, 0.75])
_sparsity = st.sampled_from([1.0, 0.9, 0.5, 0.3, 1 / 7])
_spatial_types = st.sampled_from(
    [
        LayerType.CONV,
        LayerType.DEPTHWISE_CONV,
        LayerType.POINTWISE_CONV,
        LayerType.FIRE,
        LayerType.INVERTED_RESIDUAL,
        LayerType.MAX_POOL,
        LayerType.AVG_POOL,
        LayerType.BATCH_NORM,
        LayerType.RELU,
        LayerType.DROPOUT,
    ]
)


@st.composite
def spatial_layers(draw):
    """A layer that keeps an 8x8 feature map 8x8 (any extra fields)."""
    kernel = draw(st.sampled_from([1, 3]))
    layer_type = draw(_spatial_types)
    pool = layer_type in (LayerType.MAX_POOL, LayerType.AVG_POOL)
    return LayerSpec(
        layer_type,
        kernel_size=1 if pool else kernel,
        stride=1,
        padding=0 if pool else (kernel - 1) // 2,
        out_channels=draw(st.integers(1, 64)),
        groups=draw(st.integers(1, 4)),
        expansion=draw(st.integers(1, 6)),
        squeeze_ratio=draw(_ratios),
        rank=draw(st.integers(0, 16)),
        sparsity=draw(_sparsity),
        dropout_p=draw(_ratios),
        bits=draw(st.sampled_from([32, 16, 8])),
    )


@st.composite
def model_specs(draw):
    layers = draw(st.lists(spatial_layers(), max_size=6))
    if draw(st.booleans()):
        layers.append(LayerSpec(LayerType.FLATTEN))
        for width in draw(st.lists(st.integers(1, 32), max_size=3)):
            layers.append(LayerSpec(LayerType.FC, out_channels=width))
    shape = TensorShape(draw(st.integers(1, 8)), 8, 8)
    return ModelSpec(layers, shape, name=draw(st.sampled_from(["a", "b"])))


@settings(max_examples=150, deadline=None)
@given(model_specs())
def test_fast_fingerprint_equals_serializer(spec):
    for layer in spec.layers:
        assert layer.to_dict() == _legacy_layer_dict(layer)
    assert compute_fingerprint(spec) == serialized_fingerprint(spec)
    assert spec.fingerprint() == serialized_fingerprint(spec)


_free_numbers = st.one_of(
    st.integers(-(2**70), 2**70), st.floats(allow_nan=True), st.booleans()
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(list(LayerType)),
    st.dictionaries(
        st.sampled_from(["groups", "expansion", "squeeze_ratio", "rank", "dropout_p"]),
        _free_numbers,
    ),
)
def test_fragment_equals_json_for_any_number(layer_type, changes):
    """The fragment is ``json.dumps`` of the layer's dict for any int, float
    or bool in the fields ``LayerSpec`` does not validate."""
    layer = LayerSpec(layer_type, 3, 1, 1, 16).replace(**changes)
    assert layer.fingerprint_json == json.dumps(_legacy_layer_dict(layer), sort_keys=True)


@settings(max_examples=150, deadline=None)
@given(model_specs(), model_specs())
def test_equal_structure_iff_equal_fingerprint(a, b):
    same_structure = a.layers == b.layers and a.input_shape == b.input_shape
    assert same_structure == (a.fingerprint() == b.fingerprint())
    renamed = ModelSpec(a.layers, a.input_shape, name=a.name + "-copy")
    assert renamed.fingerprint() == a.fingerprint()


@settings(max_examples=100, deadline=None)
@given(model_specs(), st.data())
def test_one_field_change_moves_the_fingerprint(spec, data):
    if not len(spec):
        return
    index = data.draw(st.integers(0, len(spec) - 1))
    layer = spec[index]
    changed = layer.replace(bits=layer.bits + 1)
    other = spec.replace_layer(index, [changed])
    assert other.fingerprint() != spec.fingerprint()
    assert other.fingerprint() == serialized_fingerprint(other)
