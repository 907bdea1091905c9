"""Unit + property tests for layer/model specs (the MDP state, Eqn. 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.spec import (
    LayerSpec,
    LayerType,
    ModelSpec,
    TensorShape,
    conv,
    fc,
    flatten,
    global_avg_pool,
    infer_output_shape,
    layer_parameter_count,
    max_pool,
    relu,
)
from repro.nn.zoo import get_model


class TestLayerSpec:
    def test_eqn1_string(self):
        layer = LayerSpec(LayerType.CONV, 3, 1, 1, 64)
        assert layer.to_string() == "conv,3,1,1,64"

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            LayerSpec(LayerType.CONV, -1, 1, 1, 8)
        with pytest.raises(ValueError):
            LayerSpec(LayerType.CONV, 3, 0, 1, 8)
        with pytest.raises(ValueError):
            LayerSpec(LayerType.CONV, 3, 1, -2, 8)

    def test_invalid_sparsity_rejected(self):
        with pytest.raises(ValueError):
            LayerSpec(LayerType.FC, out_channels=10, sparsity=0.0)

    def test_replace_creates_new(self):
        layer = conv(8)
        other = layer.replace(out_channels=4)
        assert other.out_channels == 4
        assert layer.out_channels == 8

    def test_dict_roundtrip(self):
        layer = LayerSpec(LayerType.FIRE, 3, 1, 1, 32, squeeze_ratio=0.25)
        assert LayerSpec.from_dict(layer.to_dict()) == layer

    def test_is_compute_flags(self):
        assert conv(8).is_compute
        assert fc(10).is_compute
        assert not relu().is_compute
        assert not max_pool().is_compute

    def test_is_compressible_flags(self):
        assert conv(8).is_compressible
        assert fc(10).is_compressible
        assert not flatten().is_compressible


class TestShapeInference:
    def test_conv_same_padding(self):
        shape = infer_output_shape(conv(16, 3, 1, 1), TensorShape(3, 8, 8))
        assert shape == TensorShape(16, 8, 8)

    def test_conv_stride(self):
        shape = infer_output_shape(conv(4, 3, 2, 1), TensorShape(3, 8, 8))
        assert (shape.height, shape.width) == (4, 4)

    def test_conv_on_flat_rejected(self):
        with pytest.raises(ValueError):
            infer_output_shape(conv(4), TensorShape(10, 1, 1, flat=True))

    def test_pool_shrinks(self):
        shape = infer_output_shape(max_pool(2), TensorShape(8, 6, 6))
        assert (shape.height, shape.width) == (3, 3)

    def test_flatten(self):
        shape = infer_output_shape(flatten(), TensorShape(4, 3, 3))
        assert shape.flat and shape.channels == 36

    def test_fc_output(self):
        shape = infer_output_shape(fc(10), TensorShape(36, 1, 1, flat=True))
        assert shape.channels == 10 and shape.flat

    def test_gap_flattens(self):
        shape = infer_output_shape(global_avg_pool(), TensorShape(32, 4, 4))
        assert shape.flat and shape.channels == 32

    def test_nonpositive_spatial_rejected(self):
        with pytest.raises(ValueError):
            infer_output_shape(conv(4, 7, 1, 0), TensorShape(3, 4, 4))

    def test_depthwise_keeps_channels(self):
        layer = LayerSpec(LayerType.DEPTHWISE_CONV, 3, 1, 1, 0)
        shape = infer_output_shape(layer, TensorShape(12, 8, 8))
        assert shape.channels == 12


class TestTensorShape:
    def test_num_values_spatial(self):
        assert TensorShape(3, 4, 4).num_values == 48

    def test_num_values_flat(self):
        assert TensorShape(100, 1, 1, flat=True).num_values == 100

    def test_num_bytes(self):
        assert TensorShape(2, 2, 2).num_bytes == 32  # float32


class TestModelSpec:
    def test_eager_validation(self):
        with pytest.raises(ValueError):
            ModelSpec([flatten(), conv(4)], TensorShape(3, 8, 8))

    def test_shapes_per_layer(self, small_spec):
        assert small_spec.input_shape_of(0) == TensorShape(3, 8, 8)
        assert small_spec.output_shape_of(0).channels == 8

    def test_feature_bytes_after(self, small_spec):
        assert small_spec.feature_bytes_after(-1) == 3 * 8 * 8 * 4
        assert small_spec.feature_bytes_after(0) == 8 * 8 * 8 * 4

    def test_slice_preserves_shapes(self, small_spec):
        part = small_spec.slice(3, 6)
        assert part.input_shape == small_spec.input_shape_of(3)
        assert part.output_shape == small_spec.output_shape_of(5)

    def test_slice_concat_identity(self, small_spec):
        left = small_spec.slice(0, 4)
        right = small_spec.slice(4, len(small_spec))
        rebuilt = left.concatenate(right)
        assert rebuilt.layers == small_spec.layers
        assert rebuilt.output_shape == small_spec.output_shape

    @pytest.mark.parametrize("start,stop", [(-2, 9), (3, 2), (0, 10), (-1, -1)])
    def test_slice_rejects_out_of_range(self, small_spec, start, stop):
        assert len(small_spec) == 9
        with pytest.raises(ValueError, match="out of range"):
            small_spec.slice(start, stop)

    def test_concat_shape_mismatch_rejected(self, small_spec):
        with pytest.raises(ValueError):
            small_spec.slice(0, 2).concatenate(small_spec.slice(5, 7))

    def test_replace_layer(self, small_spec):
        new = small_spec.replace_layer(0, [conv(8, 3, 1, 1), relu()])
        assert len(new) == len(small_spec) + 1

    def test_json_roundtrip(self, small_spec):
        rebuilt = ModelSpec.from_json(small_spec.to_json())
        assert rebuilt == small_spec
        assert rebuilt.fingerprint() == small_spec.fingerprint()

    def test_fingerprint_distinguishes(self, small_spec):
        other = small_spec.replace_layer(0, [conv(16, 3, 1, 1)])
        assert other.fingerprint() != small_spec.fingerprint()

    def test_fingerprint_stable_across_instances(self, small_spec):
        clone = ModelSpec(small_spec.layers, small_spec.input_shape)
        assert clone.fingerprint() == small_spec.fingerprint()

    def test_equality_and_hash(self, small_spec):
        clone = ModelSpec(small_spec.layers, small_spec.input_shape)
        assert clone == small_spec
        assert hash(clone) == hash(small_spec)

    def test_to_strings_matches_layers(self, small_spec):
        strings = small_spec.to_strings()
        assert len(strings) == len(small_spec)
        assert strings[0].startswith("conv,")


class TestParameterCounting:
    def test_conv_params(self):
        assert layer_parameter_count(conv(8, 3), 3) == 3 * 8 * 9 + 8

    def test_fc_params(self):
        assert layer_parameter_count(fc(10), 100) == 1010

    def test_fc_factorized_params(self):
        layer = fc(10).replace(rank=4)
        assert layer_parameter_count(layer, 100) == 100 * 4 + 4 * 10 + 10

    def test_fc_sparse_factorized_params(self):
        dense_rank = layer_parameter_count(fc(10).replace(rank=4), 100)
        sparse = layer_parameter_count(fc(10).replace(rank=4, sparsity=0.5), 100)
        assert sparse < dense_rank

    def test_activation_layers_free(self):
        assert layer_parameter_count(relu(), 64) == 0
        assert layer_parameter_count(max_pool(), 64) == 0


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------
conv_layers = st.builds(
    conv,
    out_channels=st.integers(1, 32),
    kernel_size=st.just(3),
    stride=st.sampled_from([1, 2]),
    padding=st.just(1),
)


@given(st.lists(conv_layers, min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_conv_chain_shapes_always_positive(layers):
    """Any 3x3/p1 conv chain on a 32x32 input infers positive shapes."""
    try:
        spec = ModelSpec(layers, TensorShape(3, 32, 32))
    except ValueError:
        return  # deep stride chains can exhaust spatial size: fine to reject
    for i in range(len(spec)):
        shape = spec.output_shape_of(i)
        assert shape.channels > 0 and shape.height > 0 and shape.width > 0


@given(st.lists(conv_layers, min_size=2, max_size=6), st.data())
@settings(max_examples=50, deadline=None)
def test_slice_concat_roundtrip_property(layers, data):
    try:
        spec = ModelSpec(layers + [flatten(), fc(10)], TensorShape(3, 32, 32))
    except ValueError:
        return
    cut = data.draw(st.integers(1, len(spec) - 1))
    rebuilt = spec.slice(0, cut).concatenate(spec.slice(cut, len(spec)))
    assert rebuilt.layers == spec.layers


@given(st.lists(conv_layers, min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_fingerprint_deterministic(layers):
    try:
        a = ModelSpec(layers, TensorShape(3, 32, 32))
        b = ModelSpec(list(layers), TensorShape(3, 32, 32))
    except ValueError:
        return
    assert a.fingerprint() == b.fingerprint()



replacement_layers = st.lists(
    st.one_of(conv_layers, st.just(relu()), st.just(max_pool(2)), st.just(flatten())),
    max_size=3,
)


@given(
    name=st.sampled_from(["vgg11", "alexnet", "tiny_cnn"]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_derived_spec_shapes_equal_fresh_construction(name, data):
    """``slice``, ``concatenate`` and ``replace_range``/``replace_layer``
    reuse the shapes they already know; every shape must still equal that of
    a spec built from scratch, and an invalid replacement must still raise."""
    spec = get_model(name)
    n = len(spec)
    start = data.draw(st.integers(0, n), label="start")
    stop = data.draw(st.integers(start, n), label="stop")
    cut = data.draw(st.integers(start, stop), label="cut")
    left, right = spec.slice(start, cut), spec.slice(cut, stop)
    derived = [left, right, left.concatenate(right)]
    index = data.draw(st.integers(-n, n - 1), label="index")
    end = data.draw(st.integers(-n, n), label="end")
    new_layers = data.draw(replacement_layers, label="new_layers")
    for lo, hi, replace in (
        (index, index + 1, lambda: spec.replace_layer(index, new_layers)),
        (index, end, lambda: spec.replace_range(index, end, new_layers)),
    ):
        layers = list(spec.layers)
        layers[lo:hi] = new_layers
        try:
            ModelSpec(layers, spec.input_shape)
        except ValueError:
            with pytest.raises(ValueError):
                replace()
            continue
        derived.append(replace())
        assert derived[-1].layers == tuple(layers)
    for part in derived:
        fresh = ModelSpec(part.layers, part.input_shape)
        assert part._shapes == fresh._shapes
