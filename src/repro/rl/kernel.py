"""Tape-free episode kernels: the controllers' BiLSTM pass, heads and draws.

A controller's pass is a fixed architecture, so it runs in plain numpy,
off the autodiff tape: the BiLSTM (:func:`bilstm_forward`), the heads,
the masked log-softmax (:func:`categorical`) and the draws
(:func:`draw_rows`). One :class:`Pass` record keeps what the backward
needs; each action is a ``(pass, row)`` handle into it. An update turns
the handles into one ``(rows, 2)`` gradient per pass (d loss / d log-prob
and d loss / d entropy) and runs a hand-written backward into ``.grad``.

The backward is bit-identical to the per-step tape's. Every expression is
the tape's own, on arrays of the same shapes and layouts (stacking the
two directions and batching the steps change which arrays an operation
sees, never what each element goes through), and each parameter's terms
are summed in the tape's order, after any gradient it already holds:
passes by their last loss term; in a pass ``W_hh`` in ascending time
(the initial state's all-zero term included), ``bias`` in BPTT order and
the projections in direction order. Floating-point addition is not
associative: any other order drifts in the last bits, and seeded searches
would no longer replay.
"""

from __future__ import annotations

from math import prod
from typing import Any, List, Tuple, Union

import numpy as np

from ..nn.rnn import BiLSTM
from ..nn.tensor import Tensor

#: ``rng.choice``'s tolerance on ``sum(p) - 1``: sqrt(float64 eps), 2**-26.
_CHOICE_ATOL = 2.0**-26

#: The recurrence's scalar operands as 0-d arrays: the same values as the
#: Python floats, without a conversion per ufunc call.
_LOW, _ONE = np.array(-60.0), np.array(1.0)


class Pass:
    """One controller pass: row ``r``'s action log-prob ``log_prob[r]``
    and distribution entropy ``entropy[r]``, and the activations its
    backward needs. The first :meth:`backward` consumes them, as a tape
    backward consumes its nodes; a later one is a no-op."""

    __slots__ = ("controller", "log_prob", "entropy", "activations")

    def __init__(self, controller: Any, log_prob, entropy, activations: tuple) -> None:
        self.controller, self.log_prob, self.entropy = controller, log_prob, entropy
        self.activations: Any = activations

    def backward(self, grad: np.ndarray) -> None:
        """Accumulate ``grad`` (rows, 2) into the controller's parameters."""
        if self.activations is not None:
            activations, self.activations = self.activations, None
            self.controller.backward_pass(activations, grad)


def _buffers(*shapes: Tuple[int, ...]) -> List[np.ndarray]:
    """C-ordered arrays of ``shapes`` carved from one fresh allocation.

    One block per call, not one allocation per array: glibc (2.36) serves
    the block from its heap call after call, while a few hundred
    kilobytes of separate arrays, freed together, get trimmed off the
    heap top and page-faulted in again by the next call (six seed-2
    ``search-wide`` units took about 197k minor faults that way, against
    3.2k with one block).
    """
    sizes = [prod(shape) for shape in shapes]
    block = np.empty(sum(sizes))
    ends = np.cumsum(sizes).tolist()
    return [block[end - size : end].reshape(shape) for shape, size, end in zip(shapes, sizes, ends)]


def bilstm_forward(backbone: BiLSTM, x: np.ndarray) -> Tuple[np.ndarray, tuple]:
    """Hidden states (N, T, 2*hidden) of ``backbone`` over ``x`` (N, T, F),
    and the activations :func:`bilstm_backward` needs.

    The directions run stacked on a leading axis D = 2: a step is one
    ``(D, N, hidden) @ (D, hidden, 4*hidden)`` matmul plus the gate
    arithmetic, written into (T, D, N, ...) buffers by processing step.
    """
    cells = (backbone.forward_lstm.cell, backbone.backward_lstm.cell)
    n, t, _ = x.shape
    gate_size = cells[0].weight_ih.shape[0]
    hs = gate_size // 4
    # Each direction's ``x @ W_ih^T``, (D, N, T, 4*hidden).
    w_ih = np.array([cell.weight_ih.data for cell in cells])
    projected, xp = _buffers((2, n, t, gate_size), (t, 2, n, gate_size))
    np.matmul(x, w_ih.swapaxes(-1, -2)[:, None], out=projected)
    xp[:, 0] = projected[0].swapaxes(0, 1)
    xp[:, 1] = projected[1][:, ::-1].swapaxes(0, 1)
    w = np.array([cell.weight_hh.data for cell in cells])  # (D, 4*hidden, hidden)
    wt = w.swapaxes(-1, -2)
    b = np.array([cell.bias.data for cell in cells])[:, None, :]
    # Each step's sigmoid slot-major, (4, D, N, hidden): i, f, cell, o.
    scale = np.empty((t, 4, 2, n, hs))
    g = np.empty((t, 2, n, hs))
    tc = np.empty((t, 2, n, hs))
    # h[k + 1] and c[k + 1] are processing step k's state; index 0 is the
    # all-zero initial state.
    h = np.zeros((t + 1, 2, n, hs))
    c = np.zeros((t + 1, 2, n, hs))
    gates = np.empty((2, n, gate_size))
    slots = gates.reshape(2, n, 4, hs).transpose(2, 0, 1, 3)
    cell_gates = slots[2]
    product = np.empty((2, n, hs))
    matmul, add, multiply, tanh = np.matmul, np.add, np.multiply, np.tanh
    h_prev, c_prev = h[0], c[0]
    steps = zip(h[1:], c[1:], xp, scale, g, tc, scale[:, 0], scale[:, 1], scale[:, 3])
    for h_next, c_next, x_k, s, g_k, tc_k, i, f, o in steps:
        matmul(h_prev, wt, out=gates)
        add(gates, x_k, out=gates)
        add(gates, b, out=gates)
        # The tape's sigmoid, 1 / (1 + exp(-clip(gates, -60, 60))), over all
        # four slots (the cell slot is overwritten below). Past 60 it is 1.0
        # with or without the upper clip (1 + exp(-60) rounds to 1.0).
        np.maximum(slots, _LOW, out=s)
        np.negative(s, out=s)
        np.exp(s, out=s)
        add(s, _ONE, out=s)
        np.divide(_ONE, s, out=s)
        tanh(cell_gates, out=g_k)
        multiply(f, c_prev, out=c_next)
        add(c_next, multiply(i, g_k, out=product), out=c_next)
        tanh(c_next, out=tc_k)
        multiply(o, tc_k, out=h_next)
        h_prev, c_prev = h_next, c_next
    scale[:, 2] = 1.0  # so the cell slot multiplies through exactly in backward
    out = np.empty((n, t, 2 * hs))
    out[..., :hs] = h[1:, 0].swapaxes(0, 1)
    out[..., hs:] = h[1:, 1].swapaxes(0, 1)[:, ::-1]
    return out, (x, w, scale, g, tc, c, h)


def bilstm_backward(backbone: BiLSTM, activations: tuple, grad: np.ndarray) -> None:
    """Accumulate d loss / d hidden ``grad`` (N, T, 2*hidden) into ``backbone``.

    Step-free terms run over all T steps at once, each step's operands
    contiguous; the loop keeps only ``dh``/``dc``.
    """
    x, w, slot_scale, g, tc, c, h = activations
    t, _, _, n, hs = slot_scale.shape
    gate_size = 4 * hs
    # (T, D, N, hidden): each direction's output grad in processing order.
    dout, tanh_slope, scale, slope, partner, dgates, w_terms, dprojected, weight_t = _buffers(
        (t, 2, n, hs), (t, 2, n, hs), *[(t, 2, n, gate_size)] * 4, (t, 2, hs, gate_size),
        (2, n, t, gate_size), (2, n, x.shape[-1], gate_size),
    )
    dout[:, 0] = grad[..., :hs].swapaxes(0, 1)
    dout[:, 1] = grad[:, ::-1, hs:].swapaxes(0, 1)
    f, o = slot_scale[:, 1], slot_scale[:, 3]
    # ``scale`` is gate-major, as each step's gradient.
    scale.reshape(t, 2, n, 4, hs)[...] = slot_scale.transpose(0, 2, 3, 1, 4)
    # Per slot, ``partner * scale * slope`` is the tape's
    # ``grad * s * (1.0 - s)`` with grad = dc*g, dc*c_prev, dh*tc for the
    # i, f, o gates, and ``grad * (1.0 - g**2)`` with grad = dc*i for the
    # cell gate.
    np.subtract(1.0, scale, out=slope)
    np.subtract(1.0, np.square(g, out=tanh_slope), out=slope[..., 2 * hs : 3 * hs])
    np.subtract(1.0, np.square(tc, out=tanh_slope), out=tanh_slope)
    np.concatenate([g, c[:-1], slot_scale[:, 0], tc], axis=-1, out=partner)
    # ``[dc, dc, dc, dh] * partner`` of one step, written slot by slot.
    weighted = np.empty((2, n, gate_size))
    weighted_dc = weighted.reshape(2, n, 4, hs)[..., :3, :]
    weighted_dh = weighted[..., 3 * hs :]
    dh_next, dh_carry, dc_term = np.empty((3, 2, n, hs))
    dh = dout[t - 1]
    dc = dh * o[t - 1] * tanh_slope[t - 1]
    dc_slots = dc[..., None, :]
    dgates_next = f_next = None
    steps = zip(
        dout[::-1], o[::-1], tanh_slope[::-1], f[::-1],
        partner.reshape(t, 2, n, 4, hs)[::-1, ..., :3, :], partner[::-1, ..., 3 * hs :],
        scale[::-1], slope[::-1], dgates[::-1],
    )
    matmul, add, multiply = np.matmul, np.add, np.multiply
    for dout_k, o_k, tanh_slope_k, f_k, partner_dc, partner_dh, scale_k, slope_k, dgates_k in steps:
        if dgates_next is not None:
            matmul(dgates_next, w, dh_carry)
            dh = add(dout_k, dh_carry, dh_next)
            multiply(dh, o_k, dc_term)
            multiply(dc_term, tanh_slope_k, dc_term)
            multiply(dc, f_next, dc)
            add(dc_term, dc, dc)
        multiply(dc_slots, partner_dc, weighted_dc)
        multiply(dh, partner_dh, weighted_dh)
        multiply(weighted, scale_k, weighted)
        multiply(weighted, slope_k, dgates_k)
        dgates_next, f_next = dgates_k, f_k
    # (T, D, hidden, 4*hidden): each step's W_hh term, transposed.
    if n == 1:
        # matmul takes one-row outer products through its slow non-BLAS
        # loop, ``0.0 + a * b``; einsum adds the same products onto a
        # zeroed output (no -0.0 either), the same bytes and faster.
        w_terms[0] = 0.0
        np.einsum("tdin,tdnj->tdij", h[1:-1].swapaxes(-1, -2), dgates[1:], out=w_terms[1:])
    else:
        np.matmul(h[:-1].swapaxes(-1, -2), dgates, out=w_terms)
    b_terms = dgates.sum(axis=2)
    # The projections ``x @ W_ih^T``: each transposed weight's gradient,
    # (D, N, F, 4*hidden) summed over N, handed back through the transpose.
    # ``dprojected`` in time order.
    dprojected[0] = dgates[:, 0].swapaxes(0, 1)
    dprojected[1] = dgates[::-1, 1].swapaxes(0, 1)
    weight_t_grads = np.matmul(x.swapaxes(-1, -2), dprojected, out=weight_t).sum(axis=1)
    cells = (backbone.forward_lstm.cell, backbone.backward_lstm.cell)
    for j, cell in enumerate(cells):
        # Ascending time: processing order forward, its reverse backward.
        _accumulate_transposed(cell.weight_hh, w_terms[::-1, j] if j else w_terms[:, j])
        cell.bias._accumulate_in_order(b_terms[::-1, j])  # BPTT order
        cell.weight_ih._accumulate(weight_t_grads[j].transpose())


def _accumulate_transposed(parameter: Tensor, terms: np.ndarray) -> None:
    """``parameter._accumulate_in_order(terms.swapaxes(-1, -2))`` over the
    contiguous (T, hidden, 4*hidden) ``terms``: the same left fold, a held
    gradient first, in the layout the tape's sum gave (a transposed view,
    C-ordered only after a C-ordered held gradient)."""
    grad = parameter.grad
    if grad is not None:
        terms = np.concatenate([grad.T[None], terms])
    total = terms.sum(axis=0).T
    keep = grad is None or abs(grad.strides[1]) > abs(grad.strides[0])
    parameter.grad = total if keep else np.ascontiguousarray(total)


def categorical(x: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Log-softmax of logit rows ``x`` (R, C): ``(log_probs, probs,
    entropy, exp_shifted, total)``, the last two reused by the backward."""
    shifted = x + -x.max(axis=-1, keepdims=True)
    exp_shifted = np.exp(shifted)
    # Each row's maximum contributes exp(0) = 1, so ``total >= 1`` and the
    # clamp below never changes a value.
    total = exp_shifted.sum(axis=-1, keepdims=True)
    log_probs = shifted + -np.log(np.maximum(total, 1.0))
    probs = np.exp(log_probs)
    entropy = -(probs * log_probs).sum(axis=-1)
    return log_probs, probs, entropy, exp_shifted, total


def categorical_backward(
    grad: np.ndarray, chosen: np.ndarray, log_probs: np.ndarray, probs: np.ndarray,
    exp_shifted: np.ndarray, total: np.ndarray,
) -> np.ndarray:
    """d loss / d logits (R, C) from ``grad`` (R, 2), per row d loss /
    d log-prob of action ``chosen[row]`` and d loss / d entropy: the tape's
    index, entropy (product node, then ``exp``) and ``log_softmax``
    gradients, all rows at once. Rows never sum with each other."""
    log_probs_grad = np.zeros(log_probs.shape)
    log_probs_grad[np.arange(len(grad)), chosen] += grad[:, 0]
    entropy_grad = grad[:, 1:]
    if entropy_grad.any():
        product_grad = np.broadcast_to(-entropy_grad, log_probs.shape)
        log_probs_grad = log_probs_grad + product_grad * probs
        log_probs_grad = log_probs_grad + (product_grad * log_probs) * probs
    sum_grad = -log_probs_grad.sum(axis=-1, keepdims=True) / total
    return log_probs_grad + sum_grad * exp_shifted


def checked_cdf(probs: np.ndarray) -> np.ndarray:
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


def draw_rows(
    probs: np.ndarray, uniforms: np.ndarray, rows: Union[slice, list] = slice(None)
) -> np.ndarray:
    """One action for each of ``probs[rows]``, row ``r`` from ``uniforms[r]``.

    Rows are renormalized and checked as ``rng.choice`` does; an action is
    ``cdf.searchsorted(u, side="right")``, the count of cdf entries
    ``<= u``. With ``uniforms = rng.random(R)`` these are the actions and
    RNG state of one ``rng.choice(C, p=row)`` per row, in row order: that
    is numpy's own path for one weighted draw.
    """
    probs = probs / probs.sum(axis=-1, keepdims=True)  # flowcheck: ignore[div-guard] -- softmax probs sum to ~1; renormalizes fp error for rng.choice
    return np.count_nonzero(checked_cdf(probs)[rows] <= uniforms[:, None], axis=-1)
