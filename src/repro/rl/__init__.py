"""RL machinery: controllers, their tape-free kernels, REINFORCE, exploration."""

from .controller import (
    NO_PARTITION,
    CompressionController,
    PartitionController,
)
from .encoding import ENCODING_WIDTH, encode_layer, encode_model
from .exploration import FairChanceSchedule
from .reinforce import EMABaseline, ReinforceTrainer

__all__ = [
    "NO_PARTITION",
    "CompressionController",
    "PartitionController",
    "ENCODING_WIDTH",
    "encode_layer",
    "encode_model",
    "FairChanceSchedule",
    "EMABaseline",
    "ReinforceTrainer",
]
