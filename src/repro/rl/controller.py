"""The LSTM-based partition and compression controllers — Sec. VI-C, Fig. 6.

Both controllers share a backbone: the layer-hyperparameter sequence runs
through a bidirectional LSTM producing hidden states ``H_i``. The *partition
controller* emits one softmax over the L+1 cut choices of a block (cut
before layer 0..L−1, or the L+1-th "no partition" option — Sec. VII-A). The
*compression controller* emits one softmax per layer over the technique
registry, with inapplicable techniques masked out.

Sampling returns both the drawn action and its log-probability tensor so
REINFORCE gradients flow back through the LSTM. All draws from one
backbone pass share one :class:`CategoricalHead` tape node; the per-row
log-probs and entropies are scalar views into it.

Each controller samples through one entry point, ``sample_batch``: N
requests against the same block — the K same-block-different-bandwidth
forks of a tree level, or the per-fork edge slices — run through the
backbone as one (N, T, W) pass. A single request is a batch of one. Rows
draw from the RNG in request order, so one call of N rows and N calls of
one row draw the same actions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compression.base import TechniqueRegistry
from ..model.spec import ModelSpec
from ..nn.init import xavier_uniform
from ..nn.layers import Module
from ..nn.rnn import BiLSTM
from ..nn.tensor import ScalarView, Tensor, concatenate
from .encoding import ENCODING_WIDTH, LayerEncoder

NO_PARTITION = -1  # sentinel action: keep the whole block on the edge

#: ``rng.choice``'s tolerance on ``sum(p) - 1``: sqrt(float64 eps), 2**-26.
_CHOICE_ATOL = 2.0**-26


class CategoricalHead:
    """Every categorical draw of one backbone pass as a single tape node.

    ``logits`` is a backbone pass's logits tensor, of shape (..., C);
    ``rows`` picks the rows of ``logits.reshape(-1, C)`` that are drawn
    from, and ``mask`` (one boolean row per picked row) masks inapplicable
    actions to -1e9. The masked log-softmax, the probabilities and the
    entropies of all picked rows are computed at once in numpy. Then
    :meth:`draw` samples (or :meth:`force` fixes) each row's action, in
    whatever order the caller's RNG stream requires.

    ``node`` holds, per row, the drawn action's log-prob and the entropy.
    :meth:`log_prob` and :meth:`entropy` hand them out as
    :class:`~repro.nn.tensor.ScalarView` scalars. Its backward is
    hand-written and tape-exact: it repeats, for all rows at once, the
    expressions that ``log_softmax``, ``exp``, the entropy's
    ``-(p * log_p).sum()`` and the log-prob index would record per row,
    in the order the tape would accumulate them. Every row sits in its own
    slot of ``logits``, so the rows' gradients never sum with each other.
    The logits gradient is therefore bit-identical to that of the per-row
    nodes.
    """

    def __init__(
        self,
        logits: Tensor,
        rows: Sequence[int],
        mask: Optional[np.ndarray] = None,
    ) -> None:
        width = logits.shape[-1]
        flat_shape = (logits.data.size // width, width)
        x = logits.data.reshape(flat_shape)[rows]
        if mask is not None:
            x = x + np.where(mask, 0.0, -1e9)
        shifted = x + -x.max(axis=-1, keepdims=True)
        exp_shifted = np.exp(shifted)
        # Each row's maximum contributes exp(0) = 1, so ``total >= 1`` and
        # the clamp below never changes a value.
        total = exp_shifted.sum(axis=-1, keepdims=True)
        log_probs = shifted + -np.log(np.maximum(total, 1.0))
        probs = np.exp(log_probs)
        values = np.zeros((len(x), 2))
        values[:, 1] = -(probs * log_probs).sum(axis=-1)
        self.log_probs = log_probs
        # Renormalized so each row sums to 1 within rng.choice's tolerance.
        self.probs = probs / probs.sum(axis=-1, keepdims=True)  # flowcheck: ignore[div-guard] -- softmax probs sum to ~1; renormalizes fp error for rng.choice
        self._cdf: Optional[np.ndarray] = None
        self.chosen = np.zeros(len(x), dtype=np.intp)
        chosen = self.chosen

        def backward(grad: np.ndarray) -> None:
            # The index node: onehot of the log-prob's upstream gradient.
            log_probs_grad = np.zeros(x.shape)
            log_probs_grad[np.arange(len(x)), chosen] += grad[:, 0]
            entropy_grad = grad[:, 1:]
            if entropy_grad.any():
                # -(p * log_p).sum(): the product node first, then exp.
                product_grad = np.broadcast_to(-entropy_grad, x.shape)
                log_probs_grad = log_probs_grad + product_grad * probs
                log_probs_grad = log_probs_grad + (product_grad * log_probs) * probs
            # log_softmax: shifted - log(sum(exp(shifted))).
            sum_grad = -log_probs_grad.sum(axis=-1, keepdims=True) / total
            shifted_grad = log_probs_grad + sum_grad * exp_shifted
            full = np.zeros(flat_shape)
            full[rows] += shifted_grad
            logits._accumulate(full.reshape(logits.shape))

        self.node = Tensor._make(values, (logits,), backward)

    def draw(self, row: int, rng: np.random.Generator) -> int:
        """Sample row ``row``'s action from one ``rng.random()`` draw.

        The same index and RNG state as ``rng.choice(C, p=probs[row])``:
        that is numpy's own path for one weighted draw with replacement
        (a cumulative sum normalized by its last entry, then
        ``searchsorted(uniform, side="right")``). ``choice``'s checks on
        ``p`` run once per head, over every row, at the first draw.
        """
        if self._cdf is None:
            self._cdf = _checked_cdf(self.probs)
        index = int(self._cdf[row].searchsorted(rng.random(), side="right"))
        self.force(row, index)
        return index

    def force(self, row: int, index: int) -> None:
        """Take action ``index`` in row ``row`` without sampling."""
        self.chosen[row] = index
        self.node.data[row, 0] = self.log_probs[row, index]

    def log_prob(self, row: int) -> ScalarView:
        return ScalarView(self.node, (row, 0))

    def entropy(self, row: int) -> ScalarView:
        return ScalarView(self.node, (row, 1))


def _checked_cdf(probs: np.ndarray) -> np.ndarray:
    """Per-row normalized cumulative sums of ``probs``, after the checks
    ``rng.choice`` makes on ``p``: non-negative, finite, summing to 1
    within its tolerance."""
    if (probs < 0).any():
        raise ValueError("probabilities are not non-negative")
    totals = probs.sum(axis=-1)
    if not np.isfinite(totals).all():
        raise ValueError("probabilities are not finite")
    if (np.abs(totals - 1.0) > _CHOICE_ATOL).any():
        raise ValueError("probabilities do not sum to 1")
    cdf = probs.cumsum(axis=-1)
    cdf /= cdf[:, -1:]
    return cdf


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
    ) -> Tensor:
        """(N, L+1) logits: one row per requested bandwidth for one block."""
        n = len(bandwidths_mbps)
        encoded = Tensor(self.encoder.encode([spec] * n, bandwidths_mbps))
        hidden = self.backbone(encoded)  # (N, T, width)
        cut_scores = hidden.matmul(self.cut_head).reshape(n, -1) + self.bias[0]
        keep_score = hidden[:, -1, :].matmul(self.keep_head) + self.bias[1]
        return concatenate([cut_scores, keep_score], axis=1)

    def sample_batch(
        self,
        spec: ModelSpec,
        bandwidths_mbps: Sequence[float],
        rng: np.random.Generator,
        force_flags: Optional[Sequence[bool]] = None,
    ) -> List[Tuple[int, Tensor, Optional[Tensor]]]:
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
        head = CategoricalHead(self.logits_batch(spec, bandwidths_mbps), range(n))
        length = len(spec)
        results: List[Tuple[int, Tensor, Optional[Tensor]]] = []
        for row in range(n):
            if flags[row]:
                head.force(row, length)
                results.append((NO_PARTITION, head.log_prob(row), None))
                continue
            index = head.draw(row, rng)
            cut = NO_PARTITION if index == length else index
            results.append((cut, head.log_prob(row), head.entropy(row)))
        return results


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

    def _applicable_mask(self, spec: ModelSpec) -> np.ndarray:
        """(T, C): which techniques apply to which layer of ``spec``."""
        return self.registry.applicability(spec, self.technique_names)

    def _sole_applicable_names(self, mask: np.ndarray) -> List[str]:
        """Per layer, the action for a layer with at most one applicable
        technique (the other rows' entries are meaningless).

        Nothing is sampled (a one-arm distribution carries no gradient
        signal), but the emitted name must be the technique that actually
        applies — an earlier revision hardcoded ``"ID"``, silently dropping
        the sole applicable transform whenever identity was masked out.
        ``"ID"`` remains the no-op fallback when *nothing* applies.
        """
        return [
            self.technique_names[int(column)] if applies else "ID"
            for column, applies in zip(mask.argmax(axis=1), mask.any(axis=1))
        ]

    def sample_batch(
        self,
        specs: Sequence[ModelSpec],
        bandwidths_mbps: Sequence[float],
        rng: np.random.Generator,
    ) -> List[Tuple[List[str], List[Tensor], List[Tensor]]]:
        """Sample per-layer techniques for N edge slices in batched passes.

        Specs of equal length are grouped into one (N, T, W) backbone pass
        and one fused head matmul; sampling then runs in *request order*
        regardless of grouping, so the RNG stream matches N one-row calls
        over the same requests. Returns one ``(names, log_probs,
        entropies)`` triple per request. Inapplicable techniques are
        masked; layers where at most one technique applies are not sampled
        (their action carries no gradient signal) and emit that technique's
        name directly.
        """
        if len(specs) != len(bandwidths_mbps):
            raise ValueError("specs and bandwidths_mbps must have equal length")
        masks = [self._applicable_mask(spec) for spec in specs]
        groups: Dict[int, List[int]] = {}
        for i, spec in enumerate(specs):
            groups.setdefault(len(spec), []).append(i)
        # (request, layer) -> (head, row) for every layer with a real choice.
        slots: Dict[Tuple[int, int], Tuple[CategoricalHead, int]] = {}
        for length, indices in groups.items():
            rows: List[int] = []
            keys: List[Tuple[int, int]] = []
            for j, i in enumerate(indices):
                for layer in np.flatnonzero(masks[i].sum(axis=1) > 1):
                    rows.append(j * length + int(layer))
                    keys.append((i, int(layer)))
            if not rows:
                continue  # nothing to sample: no backbone pass needed
            encoded = Tensor(
                self.encoder.encode(
                    [specs[i] for i in indices], [bandwidths_mbps[i] for i in indices]
                )
            )
            hidden = self.backbone(encoded)  # (n, T, width)
            all_logits = hidden.matmul(self.head) + self.head_bias  # (n, T, C)
            row_mask = np.array([masks[i][layer] for i, layer in keys])
            head = CategoricalHead(all_logits, rows, row_mask)
            for row, key in enumerate(keys):
                slots[key] = (head, row)
        results: List[Tuple[List[str], List[Tensor], List[Tensor]]] = []
        for i, spec in enumerate(specs):
            names = self._sole_applicable_names(masks[i])
            log_probs: List[Tensor] = []
            entropies: List[Tensor] = []
            for layer in range(len(spec)):
                slot = slots.get((i, layer))
                if slot is None:
                    continue
                head, row = slot
                names[layer] = self.technique_names[head.draw(row, rng)]
                log_probs.append(head.log_prob(row))
                entropies.append(head.entropy(row))
            results.append((names, log_probs, entropies))
        return results
