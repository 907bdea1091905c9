"""Focused coverage for smaller paths not exercised elsewhere."""

import numpy as np
import pytest

from repro.mdp.state import CompressionAction, PartitionAction
from repro.model.blocks import slice_into_blocks
from repro.model.spec import LayerSpec, LayerType, ModelSpec, TensorShape, conv
from repro.network.traces import BandwidthTrace
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.nn.zoo import alexnet, resnet50, vgg19
from repro.runtime.field import FieldConditions, make_transfer_noise


class TestActions:
    def test_partition_action_fields(self):
        action = PartitionAction(layer_index=5)
        assert action.layer_index == 5

    def test_compression_action_fields(self):
        action = CompressionAction(layer_index=2, technique="C1")
        assert action.technique == "C1"

    def test_actions_hashable(self):
        assert len({PartitionAction(1), PartitionAction(1), PartitionAction(2)}) == 2


class TestZooLarge:
    def test_resnet50_imagenet_head(self):
        spec = resnet50()
        assert spec.output_shape.channels == 1000

    def test_vgg19_layer_count(self):
        # 16 convs + 16 relus + 5 pools + flatten + 3 FC + 2 relu + 2 dropout
        spec = vgg19()
        convs = sum(1 for l in spec if l.layer_type == LayerType.CONV)
        assert convs == 16

    def test_alexnet_blocks_n4(self):
        blocks = slice_into_blocks(alexnet(), 4)
        assert len(blocks) == 4
        assert blocks[-1].stop == len(alexnet())


class TestFunctionalEdges:
    def test_softmax_axis0(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = F.softmax(x, axis=0)
        np.testing.assert_allclose(out.data.sum(axis=0), [1.0, 1.0])

    def test_linear_no_bias(self):
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.ones((4, 3)))
        out = F.linear(x, w, None)
        np.testing.assert_allclose(out.data, np.full((2, 4), 3.0))

    def test_batched_matmul(self):
        a = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(2, 4, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        (out**2).sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)


class TestTraceClassifyK3:
    def test_three_way_classification(self):
        trace = BandwidthTrace(np.arange(1.0, 101.0), 0.1)
        types = trace.bandwidth_types(3)
        assert trace.classify(types[0], k=3) == 0
        assert trace.classify(types[1], k=3) == 1
        assert trace.classify(types[2] + 5, k=3) == 2


class TestFieldTransferNoise:
    def test_biased_above_one(self):
        noise = make_transfer_noise(FieldConditions(transfer_bias=1.3, transfer_jitter=0.2))
        rng = np.random.default_rng(0)
        samples = [noise(rng) for _ in range(500)]
        assert 1.15 < np.median(samples) < 1.45

    def test_always_positive(self):
        noise = make_transfer_noise(FieldConditions(transfer_jitter=1.0))
        rng = np.random.default_rng(1)
        assert all(noise(rng) > 0 for _ in range(100))


class TestSpecMisc:
    def test_replace_range(self):
        spec = ModelSpec(
            [conv(4, 3, 1, 1), conv(4, 3, 1, 1), conv(4, 3, 1, 1)],
            TensorShape(3, 8, 8),
        )
        out = spec.replace_range(0, 2, [conv(4, 3, 1, 1)])
        assert len(out) == 2

    def test_parameter_bytes_default_float32(self):
        spec = ModelSpec([conv(4, 3, 1, 1)], TensorShape(3, 8, 8))
        assert spec.parameter_bytes() == spec.parameter_count() * 4

    def test_layer_bits_validation(self):
        with pytest.raises(ValueError):
            LayerSpec(LayerType.CONV, 3, 1, 1, 8, bits=0)

    def test_input_shape_of_zero(self):
        spec = ModelSpec([conv(4, 3, 1, 1)], TensorShape(3, 8, 8))
        assert spec.input_shape_of(0) == spec.input_shape
