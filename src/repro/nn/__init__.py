"""Pure-numpy deep-learning substrate.

A from-scratch autodiff framework — tensors, conv/FC/pool/BN/LSTM layers,
optimizers, a synthetic dataset and a model zoo — standing in for
PyTorch/TensorFlow in this offline reproduction (DESIGN.md §2).
"""

from . import functional
from .build import build_network
from .data import Batch, SyntheticImageDataset
from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    DepthwiseSeparableConv,
    Dropout,
    FactorizedLinear,
    Fire,
    Flatten,
    GlobalAvgPool2d,
    InvertedResidual,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)
from .optim import Adam
from .rnn import BiLSTM, LSTM, LSTMCell
from .tensor import Tensor, as_tensor, concatenate, stack
from .zoo import BASE_MODELS, alexnet, get_model, tiny_cnn, vgg11, vgg19

__all__ = [
    "functional",
    "build_network",
    "Batch",
    "SyntheticImageDataset",
    "AvgPool2d",
    "BatchNorm2d",
    "Conv2d",
    "DepthwiseSeparableConv",
    "Dropout",
    "FactorizedLinear",
    "Fire",
    "Flatten",
    "GlobalAvgPool2d",
    "InvertedResidual",
    "Linear",
    "MaxPool2d",
    "Module",
    "ReLU",
    "Sequential",
    "Adam",
    "BiLSTM",
    "LSTM",
    "LSTMCell",
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "BASE_MODELS",
    "alexnet",
    "get_model",
    "tiny_cnn",
    "vgg11",
    "vgg19",
]
