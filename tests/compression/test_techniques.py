"""Unit tests for the Table II compression techniques."""

import numpy as np
import pytest

from repro.compression import (
    CompressionError,
    FilterPruning,
    GAPCompression,
    IdentityCompression,
    KSVDCompression,
    MobileNetCompression,
    MobileNetV2Compression,
    SqueezeNetCompression,
    SVDCompression,
    TechniqueRegistry,
    default_registry,
    extended_registry,
)
from repro.latency.maccs import total_maccs
from repro.model.spec import LayerType
from repro.nn.zoo import alexnet, vgg11


@pytest.fixture
def registry():
    return default_registry()


def conv_indices(spec):
    return [i for i, l in enumerate(spec.layers) if l.layer_type == LayerType.CONV]


def fc_indices(spec):
    return [i for i, l in enumerate(spec.layers) if l.layer_type == LayerType.FC]


class TestRegistry:
    def test_default_has_paper_set(self, registry):
        assert set(registry.names) == {"ID", "F1", "F2", "F3", "C1", "C2", "C3", "W1"}

    def test_duplicate_rejected(self):
        reg = TechniqueRegistry([IdentityCompression()])
        with pytest.raises(ValueError):
            reg.register(IdentityCompression())

    def test_get_unknown(self, registry):
        with pytest.raises(KeyError):
            registry.get("Z9")

    def test_contains_and_len(self, registry):
        assert "C1" in registry
        assert len(registry) == 8

    @pytest.mark.parametrize("build", [vgg11, alexnet])
    def test_applicability_matches_applicable(self, build):
        registry = extended_registry()
        spec = build()
        names = registry.names[::-1] + ["Z9"]  # any order; unknown applies nowhere
        mask = registry.applicability(spec, names)
        assert mask.shape == (len(spec), len(names))
        for i in range(len(spec)):
            applicable = {t.name for t in registry.applicable(spec, i)}
            assert mask[i].tolist() == [name in applicable for name in names]

    def test_applicable_always_includes_identity(self, registry):
        spec = vgg11()
        for i in range(len(spec)):
            names = [t.name for t in registry.applicable(spec, i)]
            assert "ID" in names


class TestIdentity:
    def test_noop(self, registry):
        spec = vgg11()
        assert registry.get("ID").apply(spec, 0).layers == spec.layers


class TestSVD:
    def test_sets_rank(self, registry):
        spec = alexnet()
        idx = fc_indices(spec)[0]
        out = SVDCompression(rank_ratio=0.25).apply(spec, idx)
        # Layer count unchanged; the FC now carries a factorization rank.
        assert len(out) == len(spec)
        transformed = out[idx]
        assert transformed.rank > 0
        assert transformed.sparsity == 1.0

    def test_reduces_parameters_and_maccs(self):
        spec = alexnet()
        idx = fc_indices(spec)[0]
        out = SVDCompression(0.25).apply(spec, idx)
        assert out.parameter_count() < spec.parameter_count()
        assert total_maccs(out) < total_maccs(spec)

    def test_not_applicable_twice(self):
        spec = alexnet()
        idx = fc_indices(spec)[0]
        technique = SVDCompression(0.25)
        once = technique.apply(spec, idx)
        assert not technique.applies_to(once, idx)

    def test_not_applicable_to_conv(self):
        spec = vgg11()
        assert not SVDCompression().applies_to(spec, conv_indices(spec)[0])

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            SVDCompression(rank_ratio=0.0)


class TestKSVD:
    def test_sets_rank_and_sparsity(self):
        spec = alexnet()
        idx = fc_indices(spec)[0]
        out = KSVDCompression(0.25, density=0.5).apply(spec, idx)
        assert out[idx].rank > 0
        assert out[idx].sparsity == 0.5

    def test_fewer_params_than_svd(self):
        spec = alexnet()
        idx = fc_indices(spec)[0]
        svd = SVDCompression(0.25).apply(spec, idx)
        ksvd = KSVDCompression(0.25, density=0.5).apply(spec, idx)
        assert ksvd.parameter_count() < svd.parameter_count()


class TestGAP:
    def test_applicable_only_at_first_fc_of_stack(self):
        spec = alexnet()
        fcs = fc_indices(spec)
        technique = GAPCompression()
        assert technique.applies_to(spec, fcs[0])
        assert not technique.applies_to(spec, fcs[1])
        assert not technique.applies_to(spec, fcs[2])

    def test_not_applicable_on_single_fc_head(self):
        spec = vgg11()  # CIFAR VGG11 has a single FC
        technique = GAPCompression()
        assert not any(technique.applies_to(spec, i) for i in fc_indices(spec))

    def test_replaces_stack_with_gap(self):
        spec = alexnet()
        out = GAPCompression().apply(spec, fc_indices(spec)[0])
        types = [l.layer_type for l in out.layers]
        assert LayerType.GLOBAL_AVG_POOL in types
        assert types.count(LayerType.FC) == 1
        assert out.output_shape == spec.output_shape

    def test_massive_parameter_cut(self):
        spec = alexnet()
        out = GAPCompression().apply(spec, fc_indices(spec)[0])
        assert out.parameter_count() < spec.parameter_count()

    def test_misuse_raises(self):
        spec = alexnet()
        with pytest.raises(CompressionError):
            GAPCompression().apply(spec, fc_indices(spec)[1])


class TestMobileNet:
    def test_splits_into_dw_pw(self):
        spec = vgg11()
        idx = conv_indices(spec)[2]
        out = MobileNetCompression().apply(spec, idx)
        assert out[idx].layer_type == LayerType.DEPTHWISE_CONV
        assert out[idx + 1].layer_type == LayerType.POINTWISE_CONV
        assert len(out) == len(spec) + 1

    def test_macc_reduction_substantial(self):
        spec = vgg11()
        idx = conv_indices(spec)[3]  # a wide mid conv
        out = MobileNetCompression().apply(spec, idx)
        assert total_maccs(out) < 0.9 * total_maccs(spec)

    def test_output_shape_preserved(self):
        spec = vgg11()
        for idx in conv_indices(spec):
            technique = MobileNetCompression()
            if technique.applies_to(spec, idx):
                assert technique.apply(spec, idx).output_shape == spec.output_shape

    def test_not_applicable_to_pointwise(self):
        spec = vgg11()
        idx = conv_indices(spec)[0]
        once = MobileNetCompression().apply(spec, idx)
        assert not MobileNetCompression().applies_to(once, idx)  # now depthwise


class TestMobileNetV2:
    def test_creates_inverted_residual(self):
        spec = vgg11()
        idx = conv_indices(spec)[1]
        out = MobileNetV2Compression(expansion=2).apply(spec, idx)
        assert out[idx].layer_type == LayerType.INVERTED_RESIDUAL
        assert out[idx].expansion == 2

    def test_invalid_expansion(self):
        with pytest.raises(ValueError):
            MobileNetV2Compression(expansion=0)

    def test_keeps_stride_and_channels(self):
        spec = alexnet()
        idx = conv_indices(spec)[1]  # the strided conv
        out = MobileNetV2Compression().apply(spec, idx)
        assert out[idx].stride == spec[idx].stride
        assert out[idx].out_channels == spec[idx].out_channels


class TestSqueezeNet:
    def test_creates_fire(self):
        spec = vgg11()
        idx = conv_indices(spec)[2]
        out = SqueezeNetCompression().apply(spec, idx)
        assert out[idx].layer_type == LayerType.FIRE
        assert out[idx].squeeze_ratio > 0

    def test_requires_3x3_stride1(self):
        spec = alexnet()
        strided = conv_indices(spec)[1]
        assert spec[strided].stride == 2
        assert not SqueezeNetCompression().applies_to(spec, strided)

    def test_requires_even_channels(self, registry):
        from repro.model.spec import ModelSpec, TensorShape, conv, flatten, fc

        spec = ModelSpec(
            [conv(7, 3, 1, 1), conv(8, 3, 1, 1), flatten(), fc(4)],
            TensorShape(3, 8, 8),
        )
        assert not SqueezeNetCompression().applies_to(spec, 0)
        assert SqueezeNetCompression().applies_to(spec, 1)


class TestFilterPruning:
    def test_shrinks_channels(self):
        spec = vgg11()
        idx = conv_indices(spec)[2]
        out = FilterPruning(0.5).apply(spec, idx)
        assert out[idx].out_channels == spec[idx].out_channels // 2

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            FilterPruning(0.0)
        with pytest.raises(ValueError):
            FilterPruning(1.0)

    def test_reduces_maccs_both_sides(self):
        """Pruning layer i reduces its own and the consumer's MACCs."""
        spec = vgg11()
        idx = conv_indices(spec)[2]
        out = FilterPruning(0.5).apply(spec, idx)
        assert total_maccs(out) < total_maccs(spec)

    def test_not_applicable_to_last_layer(self, registry):
        from repro.model.spec import ModelSpec, TensorShape, conv

        spec = ModelSpec([conv(8, 3, 1, 1)], TensorShape(3, 4, 4))
        assert not FilterPruning(0.5).applies_to(spec, 0)


class TestShapePreservation:
    """Every technique application must preserve the model output shape."""

    def test_all_techniques_all_layers(self, registry):
        for spec in (vgg11(), alexnet()):
            for technique in registry:
                for i in range(len(spec)):
                    if not technique.applies_to(spec, i):
                        continue
                    out = technique.apply(spec, i)
                    assert out.output_shape == spec.output_shape, (
                        technique.name,
                        i,
                    )
