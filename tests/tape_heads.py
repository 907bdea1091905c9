"""Oracle: the controllers' per-row policy heads recorded on the tape.

Verbatim copies of the sampling and loss code that ran before each
backbone pass's draws became one ``CategoricalHead`` node and the
REINFORCE loss one ``weighted_sum`` node: a mask-add, ``log_softmax``,
``exp``, entropy and index node per sampled row, and a left-folded
``log_prob * (-advantage)`` chain per episode. They run on top of the
tape path of ``tests/controller_reference.py`` and prove its heads, and
so the kernels that replaced them, bit-identical.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.rl.controller import NO_PARTITION
from repro.rl.encoding import encode_model


def _sample_from_logits(
    logits: Tensor, rng: np.random.Generator, mask: Optional[np.ndarray] = None
) -> Tuple[int, Tensor, Tensor]:
    if mask is not None:
        logits = logits + Tensor(np.where(mask, 0.0, -1e9))
    log_probs = F.log_softmax(logits, axis=-1)
    probs_t = log_probs.exp()
    entropy = -(probs_t * log_probs).sum()
    probs = probs_t.data / probs_t.data.sum()
    index = int(rng.choice(len(probs), p=probs))
    return index, log_probs[index], entropy


def partition_sample_batch(
    self,
    spec,
    bandwidths_mbps: Sequence[float],
    rng: np.random.Generator,
    force_flags: Optional[Sequence[bool]] = None,
) -> List[Tuple[int, Tensor, Optional[Tensor]]]:
    n = len(bandwidths_mbps)
    flags = list(force_flags) if force_flags is not None else [False] * n
    if len(flags) != n:
        raise ValueError("force_flags length must match bandwidths_mbps")
    logits = self.logits_batch(spec, bandwidths_mbps)
    length = len(spec)
    results: List[Tuple[int, Tensor, Optional[Tensor]]] = []
    for row in range(n):
        if flags[row]:
            log_probs = F.log_softmax(logits[row], axis=-1)
            results.append((NO_PARTITION, log_probs[length], None))
            continue
        index, log_prob, entropy = _sample_from_logits(logits[row], rng)
        cut = NO_PARTITION if index == length else index
        results.append((cut, log_prob, entropy))
    return results


def _applicable_mask(self, spec, layer: int) -> np.ndarray:
    applicable = {t.name for t in self.registry.applicable(spec, layer)}
    return np.array([n in applicable for n in self.technique_names])


def _sole_applicable_name(self, mask: np.ndarray) -> str:
    if mask.any():
        return self.technique_names[int(np.argmax(mask))]
    return "ID"


def compression_sample_batch(
    self,
    specs,
    bandwidths_mbps: Sequence[float],
    rng: np.random.Generator,
) -> List[Tuple[List[str], List[Tensor], List[Tensor]]]:
    if len(specs) != len(bandwidths_mbps):
        raise ValueError("specs and bandwidths_mbps must have equal length")
    logits_rows: List[Optional[Tensor]] = [None] * len(specs)
    groups: Dict[int, List[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault(len(spec), []).append(i)
    for indices in groups.values():
        encoded = Tensor(
            np.concatenate(
                [
                    encode_model(specs[i], bandwidths_mbps[i])
                    for i in indices
                ],
                axis=0,
            )
        )
        hidden = self.backbone(encoded)  # (n, T, width)
        all_logits = hidden.matmul(self.head) + self.head_bias  # (n, T, C)
        for j, i in enumerate(indices):
            logits_rows[i] = all_logits[j]
    results: List[Tuple[List[str], List[Tensor], List[Tensor]]] = []
    for i, spec in enumerate(specs):
        layer_logits = logits_rows[i]
        names: List[str] = []
        log_probs: List[Tensor] = []
        entropies: List[Tensor] = []
        for layer in range(len(spec)):
            mask = _applicable_mask(self, spec, layer)
            if mask.sum() <= 1:
                names.append(_sole_applicable_name(self, mask))
                continue
            index, log_prob, entropy = _sample_from_logits(
                layer_logits[layer], rng, mask=mask
            )
            names.append(self.technique_names[index])
            log_probs.append(log_prob)
            entropies.append(entropy)
        results.append((names, log_probs, entropies))
    return results


def episode_loss(
    self,
    episodes: Sequence[Tuple],
    baseline_value: float,
) -> Tuple[Optional[Tensor], List[float]]:
    loss: Optional[Tensor] = None
    advantages: List[float] = []
    for log_probs, reward, entropies in episodes:
        advantage = (reward - baseline_value) * self.reward_scale
        advantages.append(advantage)
        for log_prob in log_probs:
            term = log_prob * (-advantage)
            loss = term if loss is None else loss + term
        if entropies and self.entropy_coeff > 0.0:
            for entropy in entropies:
                term = entropy * (-self.entropy_coeff)
                loss = term if loss is None else loss + term
    return loss, advantages


def install(patch) -> None:
    """Swap the tape path in via ``patch`` (a ``pytest.MonkeyPatch``),
    with per-row heads and the left-fold loss in place of its fused ones."""
    from repro.rl.controller import CompressionController, PartitionController
    from repro.rl.reinforce import ReinforceTrainer
    from tests import controller_reference

    controller_reference.install(patch)
    patch.setattr(PartitionController, "sample_batch", partition_sample_batch)
    patch.setattr(CompressionController, "sample_batch", compression_sample_batch)
    patch.setattr(ReinforceTrainer, "episode_loss", episode_loss)
