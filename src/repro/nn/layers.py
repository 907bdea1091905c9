"""Layer / module abstractions for the numpy NN substrate.

The :class:`Module` hierarchy mirrors the familiar torch.nn design: modules
own parameters (:class:`repro.nn.tensor.Tensor` with ``requires_grad=True``),
compose into :class:`Sequential` containers, and switch between train/eval
modes. Composite blocks used by the paper's compression techniques —
depthwise-separable convolutions (MobileNet, C1), inverted residuals
(MobileNetV2, C2), and Fire layers (SqueezeNet, C3) — are first-class modules.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from .init import conv_fan_in, he_normal, xavier_uniform
from .tensor import Tensor, concatenate


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self.training = True

    # -- parameter management -----------------------------------------
    def parameters(self) -> Iterator[Tensor]:
        """Yield every trainable parameter in this module (recursively)."""
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                yield value
            elif isinstance(value, Module):
                yield from value.parameters()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, value in self.__dict__.items():
            key = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield key, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{key}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{key}.{i}.")

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    # -- mode switching ------------------------------------------------
    def train(self) -> "Module":
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in self.__dict__.values():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)

    # -- state dict ------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"state dict is missing parameters: {sorted(missing)}")
        for name, parameter in own.items():
            if parameter.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{parameter.data.shape} vs {state[name].shape}"
                )
            # In place: an optimizer's parameters are views of its buffer.
            parameter.data[...] = state[name]

    # -- call protocol ---------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)


class Conv2d(Module):
    """2D convolution with optional grouping (``groups=in_channels`` ⇒ depthwise)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        fan_in = conv_fan_in(in_channels // groups, kernel_size)
        self.weight = Tensor(
            he_normal(
                (out_channels, in_channels // groups, kernel_size, kernel_size),
                fan_in,
                rng,
            ),
            requires_grad=True,
            name="conv.weight",
        )
        self.bias = (
            Tensor(np.zeros(out_channels), requires_grad=True, name="conv.bias")
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(
            x, self.weight, self.bias, self.stride, self.padding, self.groups
        )


class Linear(Module):
    """Fully-connected layer; weight shape (out_features, in_features)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            he_normal((out_features, in_features), in_features, rng),
            requires_grad=True,
            name="linear.weight",
        )
        self.bias = (
            Tensor(np.zeros(out_features), requires_grad=True, name="linear.bias")
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class FactorizedLinear(Module):
    """Low-rank factorization of a Linear layer (SVD compression, F1/F2).

    Replaces an ``m × n`` weight with ``m × k`` and ``k × n`` factors
    (``k ≪ min(m, n)``), per Table II of the paper.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rank: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.rank = rank
        self.first = Linear(in_features, rank, bias=False, rng=rng)
        self.second = Linear(rank, out_features, bias=bias, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.second(self.first(x))

    @classmethod
    def from_linear(cls, layer: Linear, rank: int) -> "FactorizedLinear":
        """Build the factorization from a trained Linear layer via SVD."""
        u, s, vt = np.linalg.svd(layer.weight.data, full_matrices=False)
        rank = min(rank, len(s))
        out = cls(
            layer.in_features,
            layer.out_features,
            rank,
            bias=layer.bias is not None,
        )
        sqrt_s = np.sqrt(s[:rank])
        out.first.weight.data = (sqrt_s[:, None] * vt[:rank])  # (rank, in)
        out.second.weight.data = u[:, :rank] * sqrt_s[None, :]  # (out, rank)
        if layer.bias is not None and out.second.bias is not None:
            out.second.bias.data = layer.bias.data.copy()
        return out


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    """Global average pooling (the F3 compression technique's new structure)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class BatchNorm2d(Module):
    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Tensor(np.ones(num_features), requires_grad=True, name="bn.gamma")
        self.beta = Tensor(np.zeros(num_features), requires_grad=True, name="bn.beta")
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm2d(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            self.training,
            self.momentum,
            self.eps,
        )


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self.rng)


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.modules: List[Module] = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Sequential(*self.modules[index])
        return self.modules[index]

    def append(self, module: Module) -> None:
        self.modules.append(module)


class DepthwiseSeparableConv(Module):
    """MobileNet building block (compression technique C1).

    A K×K convolution is replaced by a K×K depthwise convolution followed by
    a 1×1 pointwise convolution, cutting MACCs roughly by a factor of
    ``C_out`` relative to the dense convolution.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.depthwise = Conv2d(
            in_channels,
            in_channels,
            kernel_size,
            stride=stride,
            padding=padding,
            groups=in_channels,
            rng=rng,
        )
        self.pointwise = Conv2d(in_channels, out_channels, 1, rng=rng)
        self.relu = ReLU()

    def forward(self, x: Tensor) -> Tensor:
        return self.pointwise(self.relu(self.depthwise(x)))


class InvertedResidual(Module):
    """MobileNetV2 building block (compression technique C2).

    Pointwise expansion → depthwise conv → pointwise projection, with a
    residual connection when the spatial/channel shapes allow it.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        expansion: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        hidden = in_channels * expansion
        self.use_residual = stride == 1 and in_channels == out_channels
        self.expand = Conv2d(in_channels, hidden, 1, rng=rng)
        self.depthwise = Conv2d(
            hidden,
            hidden,
            kernel_size,
            stride=stride,
            padding=padding,
            groups=hidden,
            rng=rng,
        )
        self.project = Conv2d(hidden, out_channels, 1, rng=rng)
        self.relu = ReLU()

    def forward(self, x: Tensor) -> Tensor:
        out = self.relu(self.expand(x))
        out = self.relu(self.depthwise(out))
        out = self.project(out)
        if self.use_residual:
            out = out + x
        return out


class Fire(Module):
    """SqueezeNet Fire layer (compression technique C3).

    A squeeze 1×1 convolution feeding parallel 1×1 and 3×3 expand
    convolutions whose outputs are concatenated along channels.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        squeeze_ratio: float = 0.25,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if out_channels % 2:
            raise ValueError("Fire layer needs an even number of output channels")
        squeeze_channels = max(1, int(round(in_channels * squeeze_ratio)))
        half = out_channels // 2
        self.squeeze = Conv2d(in_channels, squeeze_channels, 1, rng=rng)
        self.expand1x1 = Conv2d(squeeze_channels, half, 1, stride=stride, rng=rng)
        self.expand3x3 = Conv2d(
            squeeze_channels, half, 3, stride=stride, padding=1, rng=rng
        )
        self.relu = ReLU()

    def forward(self, x: Tensor) -> Tensor:
        squeezed = self.relu(self.squeeze(x))
        return concatenate(
            [self.relu(self.expand1x1(squeezed)), self.relu(self.expand3x3(squeezed))],
            axis=1,
        )
