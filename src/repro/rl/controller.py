"""The LSTM-based partition and compression controllers — Sec. VI-C, Fig. 6.

Both controllers share a backbone: the layer-hyperparameter sequence runs
through a bidirectional LSTM producing hidden states ``H_i``. The *partition
controller* emits one softmax over the L+1 cut choices of a block (cut
before layer 0..L−1, or the L+1-th "no partition" option — Sec. VII-A). The
*compression controller* emits one softmax per layer over the technique
registry, with inapplicable techniques masked out.

Each controller samples through one entry point, ``sample_batch``: N
requests against the same block — the K same-block-different-bandwidth
forks of a tree level, or the per-fork edge slices — run through the
backbone as one (N, T, W) pass. A single request is a batch of one. Rows
draw from the RNG in request order, so one call of N rows and N calls of
one row draw the same actions.

A pass runs in plain numpy (:mod:`repro.rl.kernel`) and stores one
:class:`~repro.rl.kernel.Pass` record; each action carries ``(pass, row)``
handles to its log-probability and entropy, which the trainer turns into
gradients through the controller's :meth:`backward_pass`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compression.base import TechniqueRegistry
from ..model.spec import ModelSpec
from ..nn.init import xavier_uniform
from ..nn.layers import Module
from ..nn.rnn import BiLSTM
from ..nn.tensor import Tensor
from .encoding import ENCODING_WIDTH, LayerEncoder
from .kernel import (
    Pass,
    bilstm_backward,
    bilstm_forward,
    categorical,
    categorical_backward,
    draw_rows,
)

NO_PARTITION = -1  # sentinel action: keep the whole block on the edge

#: One drawn row's log-probability or entropy: ``pass.log_prob[row]`` or
#: ``pass.entropy[row]``, depending on the list it is handed out in.
Action = Tuple[Pass, int]


class PartitionController(Module):
    """Chooses where (whether) to cut a block between edge and cloud."""

    def __init__(self, hidden_size: int = 32, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.backbone = BiLSTM(ENCODING_WIDTH, hidden_size, rng=rng)
        width = 2 * hidden_size
        # Per-position cut score (cut before layer i) and a no-partition
        # score read from the last hidden state.
        self.cut_head = Tensor(
            xavier_uniform((width, 1), width, 1, rng), requires_grad=True,
            name="partition.cut_head",
        )
        self.keep_head = Tensor(
            xavier_uniform((width, 1), width, 1, rng), requires_grad=True,
            name="partition.keep_head",
        )
        # Favor "no partition" at initialization: a uniform policy over L+1
        # cut positions almost never keeps a block whole (probability
        # 1/(L+1)), starving the compression controller of full-block
        # samples — the same pathology the paper's fair-chance exploration
        # counters at tree level.
        self.bias = Tensor(np.array([0.0, 2.0]), requires_grad=True, name="partition.bias")
        self.encoder = LayerEncoder()

    def logits_batch(
        self, spec: ModelSpec, bandwidths_mbps: Sequence[float]
    ) -> Tuple[np.ndarray, tuple]:
        """(N, L+1) logits, one row per requested bandwidth for one block,
        and the activations :meth:`backward_pass` needs."""
        n = len(bandwidths_mbps)
        encoded = self.encoder.encode([spec] * n, bandwidths_mbps)
        hidden, lstm = bilstm_forward(self.backbone, encoded)  # (N, T, width)
        cut_scores = (hidden @ self.cut_head.data).reshape(n, -1) + self.bias.data[0]
        keep_score = hidden[:, -1, :] @ self.keep_head.data + self.bias.data[1]
        return np.concatenate([cut_scores, keep_score], axis=1), (hidden, lstm)

    def sample_batch(
        self,
        spec: ModelSpec,
        bandwidths_mbps: Sequence[float],
        rng: np.random.Generator,
        force_flags: Optional[Sequence[bool]] = None,
    ) -> List[Tuple[int, Action, Optional[Action]]]:
        """Sample N cuts for one block in a single backbone pass.

        Returns one ``(cut_index, log_prob, entropy)`` triple per requested
        bandwidth, in request order, which is also the RNG consumption
        order. ``cut_index`` in [0, L) cuts before that layer (the cloud
        takes [cut_index, L)); ``NO_PARTITION`` keeps the block on the edge.
        Forced rows (fair-chance exploration, Sec. VII-A) take
        ``NO_PARTITION`` without sampling: they consume no RNG and their
        entropy is ``None``, but their log-prob is still returned so the
        update stays on-policy for the chosen action.
        """
        n = len(bandwidths_mbps)
        flags = list(force_flags) if force_flags is not None else [False] * n
        if len(flags) != n:
            raise ValueError("force_flags length must match bandwidths_mbps")
        logits, backbone = self.logits_batch(spec, bandwidths_mbps)
        head = categorical(logits)
        length = len(spec)
        chosen = np.full(n, length, dtype=np.intp)
        drawn = [row for row, forced in enumerate(flags) if not forced]
        if drawn:
            chosen[drawn] = draw_rows(head[1], rng.random(len(drawn)), drawn)
        record = Pass(self, head[0][np.arange(n), chosen], head[2], (backbone, chosen, head))
        handles = [(record, row) for row in range(n)]
        return [
            (NO_PARTITION if index == length else index, handle, None if forced else handle)
            for index, forced, handle in zip(chosen.tolist(), flags, handles)
        ]

    def backward_pass(self, activations: tuple, grad: np.ndarray) -> None:
        """Accumulate one pass's head gradient (N, 2) in the tape's order:
        cut scores, keep score, backbone, then the keep score's bias."""
        (hidden, lstm), chosen, (log_probs, probs, _, exp_shifted, total) = activations
        n, t = hidden.shape[:2]
        logits_grad = np.zeros((n, t + 1))
        logits_grad += categorical_backward(grad, chosen, log_probs, probs, exp_shifted, total)
        cut_grad = logits_grad[:, :t].copy()
        hidden_grad = cut_grad.reshape(n, t, 1) @ self.cut_head.data.swapaxes(-1, -2)
        self.cut_head._accumulate(
            (hidden.swapaxes(-1, -2) @ cut_grad.reshape(n, t, 1)).sum(axis=0)
        )
        bias_grad = np.zeros(2)
        bias_grad[0] += cut_grad.sum(axis=(0, 1))
        self.bias._accumulate(bias_grad)
        keep_grad = logits_grad[:, t:].copy()
        last = hidden[:, -1, :]
        last_grad = np.zeros(hidden.shape)
        last_grad[:, -1, :] += keep_grad @ self.keep_head.data.swapaxes(-1, -2)
        self.keep_head._accumulate(last.swapaxes(-1, -2) @ keep_grad)
        bilstm_backward(self.backbone, lstm, hidden_grad + last_grad)
        bias_grad = np.zeros(2)
        bias_grad[1] += keep_grad.sum(axis=(0, 1))
        self.bias._accumulate(bias_grad)


class CompressionController(Module):
    """Chooses a compression technique for every layer of a block."""

    def __init__(
        self,
        registry: TechniqueRegistry,
        hidden_size: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed + 1)
        self.registry = registry
        self.technique_names: List[str] = list(registry.names)
        self.backbone = BiLSTM(ENCODING_WIDTH, hidden_size, rng=rng)
        width = 2 * hidden_size
        count = len(self.technique_names)
        self.head = Tensor(
            xavier_uniform((width, count), width, count, rng),
            requires_grad=True,
            name="compression.head",
        )
        # Start near the identity: a fresh uniform policy would compress
        # ~80 % of layers per sample (4 of 5 techniques transform), and such
        # over-compressed candidates score so poorly the search never sees
        # the sparse plans that actually win. Biasing the ID logit makes
        # early samples compress ~1-3 layers, the paper's operating regime.
        bias = np.zeros(count)
        if "ID" in self.technique_names:
            bias[self.technique_names.index("ID")] = 2.0
        self.head_bias = Tensor(bias, requires_grad=True, name="compression.head_bias")
        self.encoder = LayerEncoder()

    def sample_batch(
        self,
        specs: Sequence[ModelSpec],
        bandwidths_mbps: Sequence[float],
        rng: np.random.Generator,
    ) -> List[Tuple[List[str], List[Action], List[Action]]]:
        """Sample per-layer techniques for N edge slices in batched passes.

        Specs of equal length share one (N, T, W) backbone pass and head
        matmul; draws run in *request order* regardless of grouping, so the
        RNG stream matches N one-row calls. Returns one ``(names,
        log_probs, entropies)`` triple per request; inapplicable techniques
        are masked. A layer where at most one technique applies is not
        sampled (a one-arm distribution carries no gradient signal): it
        takes that technique (not a hardcoded ``"ID"``, which would drop a
        sole transform), or ``"ID"`` when nothing applies.
        """
        if len(specs) != len(bandwidths_mbps):
            raise ValueError("specs and bandwidths_mbps must have equal length")
        groups: Dict[int, List[int]] = {}
        for i, spec in enumerate(specs):
            groups.setdefault(len(spec), []).append(i)
        count = len(self.technique_names)
        lookup = self.technique_names + ["ID"]
        # Per group: (T, C) masks of its requests, which layers draw, and
        # each layer's action (its sole technique, or index ``count``, "ID").
        plans = []
        draws = np.zeros(len(specs), dtype=np.intp)
        for indices in groups.values():
            masks = np.array(
                [self.registry.applicability(specs[i], self.technique_names) for i in indices]
            )
            sampled = masks.sum(axis=2) > 1
            draws[indices] = sampled.sum(axis=1)
            actions = np.where(masks.any(axis=2), masks.argmax(axis=2), count)
            plans.append((indices, masks, sampled, actions))
        # Request i draws uniforms[first[i] : first[i] + draws[i]], in layer order.
        first = np.cumsum(draws) - draws
        uniforms = rng.random(int(draws.sum()))
        results: Dict[int, Tuple[List[str], List[Action], List[Action]]] = {}
        for indices, masks, sampled, actions in plans:
            rows = np.flatnonzero(sampled)  # request-major, then layer
            starts = np.cumsum(draws[indices]) - draws[indices]
            record = None
            if len(rows):
                encoded = self.encoder.encode(
                    [specs[i] for i in indices], [bandwidths_mbps[i] for i in indices]
                )
                hidden, lstm = bilstm_forward(self.backbone, encoded)
                logits = (hidden @ self.head.data + self.head_bias.data).reshape(-1, count)
                masked = logits[rows] + np.where(masks.reshape(-1, count)[rows], 0.0, -1e9)
                head = categorical(masked)
                owner = np.repeat(np.arange(len(indices)), draws[indices])
                chosen = draw_rows(
                    head[1], uniforms[np.arange(len(rows)) + (first[indices] - starts)[owner]]
                )
                actions.reshape(-1)[rows] = chosen
                record = Pass(
                    self, head[0][np.arange(len(rows)), chosen], head[2],
                    ((hidden, lstm), rows, chosen, head),
                )
            for j, i in enumerate(indices):
                start = int(starts[j])
                handles = [(record, row) for row in range(start, start + int(draws[i]))]
                results[i] = ([lookup[k] for k in actions[j].tolist()], handles, list(handles))
        return [results[i] for i in range(len(specs))]

    def backward_pass(self, activations: tuple, grad: np.ndarray) -> None:
        """Accumulate one pass's head gradient (rows, 2) in the tape's
        order: the head, then the backbone."""
        (hidden, lstm), rows, chosen, (log_probs, probs, _, exp_shifted, total) = activations
        n, t = hidden.shape[:2]
        logits_grad = np.zeros((n * t, len(self.technique_names)))
        head_grad = categorical_backward(grad, chosen, log_probs, probs, exp_shifted, total)
        logits_grad[rows] += head_grad
        logits_grad = logits_grad.reshape(n, t, -1)
        self.head_bias._accumulate(logits_grad.sum(axis=(0, 1)))
        hidden_grad = logits_grad @ self.head.data.swapaxes(-1, -2)
        self.head._accumulate((hidden.swapaxes(-1, -2) @ logits_grad).sum(axis=0))
        bilstm_backward(self.backbone, lstm, hidden_grad)
