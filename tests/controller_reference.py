"""Oracle: the controllers' episode on the autodiff tape, before the kernels.

Verbatim copies of the tape path the controllers ran before
:mod:`repro.rl.kernel` replaced it: the stacked two-direction recurrence
node ``lstm_recurrence`` (with the ``LSTM.forward``/``BiLSTM.forward``
that built it), the per-pass ``CategoricalHead`` node and its
``ScalarView`` log-probs and entropies, the ``weighted_sum`` loss node,
both controllers' ``logits_batch``/``sample_batch`` and the trainer's
``episode_loss``/``update_episode``. :func:`install` swaps them in, so a
test runs the same search on the tape and on the kernels and compares
draws, values, gradients and optimizer state byte for byte.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.spec import ModelSpec
from repro.nn.rnn import BiLSTM, LSTM
from repro.nn.tensor import Tensor, _unbroadcast, concatenate, sigmoid_array
from repro.obs.trace import get_recorder
from repro.rl.controller import (
    NO_PARTITION,
    CompressionController,
    PartitionController,
)
from repro.rl.kernel import _CHOICE_ATOL
from repro.rl.reinforce import ReinforceTrainer


def lstm_recurrence(
    projected: Sequence[Tensor],
    weight_hh: Sequence[Tensor],
    bias: Sequence[Tensor],
    reverse: Sequence[bool],
) -> Tensor:
    """D LSTM directions' whole recurrences as a single tape node.

    Direction ``d`` has the hoisted input projection ``projected[d]``
    (``x @ W_ih^T``, shape (N, T, 4*hidden)), its own ``weight_hh[d]`` and
    ``bias[d]``, and processes the steps from T-1 down to 0 when
    ``reverse[d]``. The result is the directions' hidden states of every
    step joined on the last axis in direction order, (N, T, D*hidden).

    All directions run stacked on a leading axis of size D: one step is a
    single ``(D, N, hidden) @ (D, hidden, 4*hidden)`` matmul plus the gate
    arithmetic, and the step loop keeps only the recurrence (gates, ``c``,
    ``h``), writing each step's activations into (T, D, N, ...) buffers
    indexed by processing step. The backward pass computes its step-free
    terms over all T steps at once and loops only over ``dh``/``dc``; the
    ``W_hh`` terms are then one batched matmul and the bias terms one sum.

    The BPTT is tape-exact: its gradients are bit-identical to those of
    each direction's recurrence recorded step by step on the tape (a fresh
    ``W_hh.T`` per step, four gate slices, ``sigmoid``/``tanh`` nodes) and
    the directions joined by ``concatenate``. Two things make it so:

    - every expression is the tape's own, e.g. the sigmoid grad
      ``grad * s * (1.0 - s)``, the tanh grad ``grad * (1.0 - t**2)``,
      ``dh_prev = dgates @ WT.swapaxes(-1, -2)`` and the ``W_hh`` term
      ``(h_prev.swapaxes(-1, -2) @ dgates).transpose()``; stacking and
      batching change which arrays an operation sees, never the
      operation each element goes through;
    - each parameter's per-step terms are summed in the order the tape's
      topological sweep delivers them, after any gradient the parameter
      already holds: the ``W_hh`` terms (including the all-zero one from
      the initial state) in ascending time index in both directions, the
      ``bias`` terms in BPTT order, the reverse of processing order, in
      both directions. One :meth:`~repro.nn.tensor.Tensor._accumulate_in_order`
      per parameter does that sum as a single left fold, the same bytes
      as the tape's one ``_accumulate`` per step. The projections come
      first in the node's parents, in direction order, so a shared input
      receives the directions' gradients in the order ``concatenate``
      would deliver them.

    Floating-point addition is not associative, so any other order
    drifts in the last bits and seeded searches would no longer replay.
    """
    d = len(projected)
    n, t, gate_size = projected[0].shape
    hs = gate_size // 4
    # (T, D, N, 4*hidden): each direction's inputs in its processing order.
    xp = np.ascontiguousarray(
        np.stack([p.data[:, ::-1] if r else p.data for p, r in zip(projected, reverse)])
        .transpose(2, 0, 1, 3)
    )
    w = np.stack([wh.data for wh in weight_hh])  # (D, 4*hidden, hidden)
    wt = w.swapaxes(-1, -2)
    b = np.stack([bb.data for bb in bias])[:, None, :]
    scale = np.empty((t, d, n, gate_size))
    g = np.empty((t, d, n, hs))
    tc = np.empty((t, d, n, hs))
    # h[k + 1] and c[k + 1] are processing step k's state; index 0 is the
    # all-zero initial state.
    h = np.zeros((t + 1, d, n, hs))
    c = np.zeros((t + 1, d, n, hs))
    i, f, cell_slot, o = (scale[..., q * hs : (q + 1) * hs] for q in range(4))
    for k in range(t):
        gates = xp[k] + h[k] @ wt
        gates = gates + b
        # One sigmoid over all four slots; the cell slot is overwritten
        # with 1.0 so ``scale`` multiplies it through exactly in backward.
        scale[k] = sigmoid_array(gates)
        np.tanh(gates[..., 2 * hs : 3 * hs], out=g[k])
        cell_slot[k] = 1.0
        np.add(f[k] * c[k], i[k] * g[k], out=c[k + 1])
        np.tanh(c[k + 1], out=tc[k])
        np.multiply(o[k], tc[k], out=h[k + 1])
    out = np.empty((n, t, d * hs))
    for j, r in enumerate(reverse):
        hj = h[1:, j].swapaxes(0, 1)  # (N, T, hidden) in processing order
        out[..., j * hs : (j + 1) * hs] = hj[:, ::-1] if r else hj

    def backward(grad: np.ndarray) -> None:
        # (T, D, N, hidden): each direction's output grad in processing order.
        dout = np.stack(
            [
                grad[:, ::-1, j * hs : (j + 1) * hs] if r else grad[..., j * hs : (j + 1) * hs]
                for j, r in enumerate(reverse)
            ]
        ).transpose(2, 0, 1, 3)
        # Per slot, ``partner * scale * slope`` is the tape's
        # ``grad * s * (1.0 - s)`` with grad = dc*g, dc*c_prev, dh*tc for
        # the i, f, o gates, and ``grad * (1.0 - g**2)`` with grad = dc*i
        # for the cell gate.
        slope = 1.0 - scale
        slope[..., 2 * hs : 3 * hs] = 1.0 - g**2
        partner = np.concatenate([g, c[:-1], i, tc], axis=-1)
        tanh_slope = 1.0 - tc**2
        dgates = np.empty((t, d, n, gate_size))
        dh_next: Optional[np.ndarray] = None
        dc_next: Optional[np.ndarray] = None
        for k in range(t - 1, -1, -1):
            dh = dout[k] if dh_next is None else dout[k] + dh_next
            dc = dh * o[k] * tanh_slope[k]
            if dc_next is not None:
                dc = dc + dc_next
            np.multiply(
                np.concatenate([dc, dc, dc, dh], axis=-1) * partner[k] * scale[k],
                slope[k],
                out=dgates[k],
            )
            dh_next = dgates[k] @ w
            dc_next = dc * f[k]
        # (T, D, hidden, 4*hidden) and (T, D, 4*hidden), in processing order.
        h_prev = h[:-1].swapaxes(-1, -2)
        if n == 1:
            # matmul takes one-row outer products through its non-BLAS
            # loop, ``0.0 + a * b`` per element. einsum plus ``+= 0.0``
            # (which turns -0.0 into 0.0) is the same bytes, several times
            # faster.
            w_terms = np.einsum("tdin,tdnj->tdij", h_prev, dgates)
            w_terms += 0.0
        else:
            w_terms = h_prev @ dgates
        b_terms = dgates.sum(axis=2)
        for j, r in enumerate(reverse):
            dp = dgates[:, j].swapaxes(0, 1)  # (N, T, 4*hidden) in processing order
            projected[j]._accumulate(np.ascontiguousarray(dp[:, ::-1] if r else dp))
            ascending = w_terms[::-1, j] if r else w_terms[:, j]
            weight_hh[j]._accumulate_in_order(ascending.swapaxes(-1, -2))
            bias[j]._accumulate_in_order(b_terms[::-1, j])  # BPTT order

    return Tensor._make(out, (*projected, *weight_hh, *bias), backward)


def lstm_forward(self, x: Tensor, reverse: bool = False) -> Tensor:
    """Return hidden states for every step, shape (N, T, hidden_size).

    The input projection ``x @ W_ih^T`` has no recurrent dependency, so
    it is computed for all N sequences and T steps in one batched matmul
    on the tape; the ``h @ W_hh^T`` recurrence then runs as the single
    :func:`lstm_recurrence` node.
    """
    projected = x.matmul(self.cell.weight_ih.T)  # (N, T, 4*hidden)
    return lstm_recurrence(
        [projected], [self.cell.weight_hh], [self.cell.bias], [reverse]
    )


def bilstm_forward(self, x: Tensor) -> Tensor:
    """(N, T, input_size) -> (N, T, 2*hidden_size).

    Both directions' input projections are hoisted onto the tape, then
    both recurrences run stacked in one :func:`lstm_recurrence` node.
    """
    cells = (self.forward_lstm.cell, self.backward_lstm.cell)
    return lstm_recurrence(
        [x.matmul(cell.weight_ih.T) for cell in cells],
        [cell.weight_hh for cell in cells],
        [cell.bias for cell in cells],
        [False, True],
    )


class ScalarView(Tensor):
    """One element of another tensor, readable and differentiable as a scalar.

    A view is not a tape operation: it is built without :meth:`Tensor._make`
    and holds its value plus ``(source, index)``. Used alone it behaves like
    ``source[index]`` (its backward routes the gradient into that element);
    :func:`weighted_sum` goes further and routes a whole loss's weights
    into each source at once, so the views themselves never join the tape.
    """

    __slots__ = ("source", "index")

    def __init__(self, source: Tensor, index: Tuple[int, ...]) -> None:
        super().__init__(source.data[index])
        self.source = source
        self.index = index
        if source.requires_grad:
            self.requires_grad = True
            self._parents = (source,)

            def backward(grad: np.ndarray) -> None:
                full = np.zeros(source.shape)
                full[index] += grad
                source._accumulate(full)

            self._backward = backward


def weighted_sum(terms: Sequence[Tuple[Tensor, float]]) -> Tensor:
    """``sum(x * w for x, w in terms)`` over scalar tensors as one tape node.

    The value is the left fold ``((x1*w1) + x2*w2) + ...`` that the same
    sum spelt with ``*`` and ``+`` computes. A :class:`ScalarView` term
    sends its weight straight into its source element, so many views of
    one tensor cost one dense ``_accumulate`` into it; any other term
    receives ``grad * w`` itself, once per occurrence in term order.

    The parents are the distinct sources ordered by their *last*
    occurrence in ``terms``. That is the order in which the ``*``/``+``
    chain's backward reaches them: its depth-first sort enters the last
    term first, so a subgraph shared by several terms is claimed by the
    last of them and processed after every earlier term's. Leaves shared
    by the sources' subgraphs (controller weights) therefore receive their
    gradient terms in the chain's order, and floating-point sums of them
    come out bit-identical.
    """
    value: Optional[np.ndarray] = None
    sources: Dict[int, Tensor] = {}
    routes: Dict[int, List[Tuple[Optional[Tuple[int, ...]], float]]] = {}
    for x, weight in terms:
        term = x.data * weight
        value = term if value is None else value + term
        source, index = (x.source, x.index) if isinstance(x, ScalarView) else (x, None)
        key = id(source)
        sources.pop(key, None)
        sources[key] = source
        routes.setdefault(key, []).append((index, weight))
    if value is None:
        raise ValueError("weighted_sum needs at least one term")
    parents = tuple(sources.values())

    def backward(grad: np.ndarray) -> None:
        for source in parents:
            full: Optional[np.ndarray] = None
            for index, weight in routes[id(source)]:
                if index is None:
                    source._accumulate(_unbroadcast(grad * weight, source.shape))
                    continue
                if full is None:
                    full = np.zeros(source.shape)
                full[index] += weight
            if full is not None:
                source._accumulate(full * grad)

    return Tensor._make(value, parents, backward)


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

def partition_sample_batch(
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

def compression_sample_batch(
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
        names = _sole_applicable_names(self, masks[i])
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


def _loss_terms(
    self,
    log_probs: Sequence[Tensor],
    entropies: Optional[Sequence[Tensor]],
    advantage: float,
) -> List[Tuple[Tensor, float]]:
    """One episode's ``(tensor, weight)`` loss terms: every action's
    ``log_prob * (-advantage)``, then (with ``entropy_coeff > 0``)
    every entropy's ``entropy * (-entropy_coeff)``."""
    terms = [(log_prob, -advantage) for log_prob in log_probs]
    if entropies and self.entropy_coeff > 0.0:
        terms.extend((entropy, -self.entropy_coeff) for entropy in entropies)
    return terms

def _step(self, loss: Tensor) -> None:
    self.optimizer.zero_grad()
    loss.backward()
    self.optimizer.clip_grad_norm(self.max_grad_norm)
    self.optimizer.step()

def episode_loss(
    self,
    episodes: Sequence[Tuple],
    baseline_value: float,
) -> Tuple[Optional[Tensor], List[float]]:
    """Accumulated REINFORCE loss of many episodes under one baseline.

    Returns ``(loss, advantages)``: the loss is the sum of every
    episode's per-action ``log_prob * (-advantage)`` terms (plus the
    entropy bonus), so its gradient equals the **sum** of the per-episode
    gradients with the baseline frozen at ``baseline_value`` — the
    property the batched-update equivalence test pins. ``loss`` is
    ``None`` when no episode carries a differentiable term.

    The sum is one :func:`~repro.nn.tensor.weighted_sum` node: the
    controllers' log-probs and entropies are views into one
    categorical-head node per backbone pass, so the whole episode's
    weights reach each head as one dense gradient. Its gradients are
    bit-identical to the per-term ``*``/``+`` chain.
    """
    terms: List[Tuple[Tensor, float]] = []
    advantages: List[float] = []
    for log_probs, reward, entropies in episodes:
        advantage = (reward - baseline_value) * self.reward_scale
        advantages.append(advantage)
        terms.extend(self._loss_terms(log_probs, entropies, advantage))
    return (weighted_sum(terms) if terms else None), advantages

def update_episode(self, episodes: Sequence[Tuple]) -> List[float]:
    """One Adam step for all of a search episode's node updates.

    Each episode is ``(log_probs, reward, entropies)``: the
    log-probabilities of every action the controller took for one node
    (the Monte-Carlo return ``G`` is the node's terminal reward, since
    intermediate states earn nothing and γ = 1) and the entropies of
    the distributions it sampled. With ``entropy_coeff > 0`` the
    entropies add the standard exploration bonus, discouraging
    premature collapse of the action distribution.

    The EMA baseline is snapshotted once at episode start, every
    node's advantage is computed against that snapshot, and one
    accumulated loss drives one ``backward()`` and one optimizer step.
    Rewards still fold into the EMA in arrival order. A one-episode
    batch is therefore the classic per-episode REINFORCE update.
    Returns the per-episode advantages used.

    Scaling contract (deliberate): ``reward_scale`` multiplies the
    *advantage* only — it sizes the gradient step. The EMA baseline
    tracks the **raw** reward, so the variance-reduction state is
    independent of the scale knob (rescaling would otherwise change
    what the baseline converges to).
    """
    if not episodes:
        return []
    baseline_value = (
        self.baseline.value if self.baseline.value is not None else 0.0
    )
    recorder = get_recorder()
    for log_probs, reward, entropies in episodes:
        self.baseline.update(reward)
        if recorder.enabled:
            advantage = (reward - baseline_value) * self.reward_scale
            mean_entropy = (
                float(np.mean([np.mean(e.data) for e in entropies]))
                if entropies
                else None
            )
            recorder.event(
                "rl.update",
                controller=self.name,
                reward=float(reward),
                baseline=float(baseline_value),
                advantage=float(advantage),
                entropy=mean_entropy,
                actions=len(log_probs),
            )
    loss, advantages = self.episode_loss(episodes, baseline_value)
    if loss is not None:
        self._step(loss)
    return advantages


def install(patch) -> None:
    """Swap the tape path in via ``patch`` (a ``pytest.MonkeyPatch``):
    both controllers' sampling, the BiLSTM forwards and the trainer's
    update."""
    patch.setattr(LSTM, "forward", lstm_forward)
    patch.setattr(BiLSTM, "forward", bilstm_forward)
    patch.setattr(PartitionController, "logits_batch", logits_batch)
    patch.setattr(PartitionController, "sample_batch", partition_sample_batch)
    patch.setattr(CompressionController, "sample_batch", compression_sample_batch)
    for method in (_applicable_mask, _sole_applicable_names):
        patch.setattr(CompressionController, method.__name__, method, raising=False)
    for method in (_loss_terms, _step, episode_loss, update_episode):
        patch.setattr(ReinforceTrainer, method.__name__, method, raising=False)
