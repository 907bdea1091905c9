"""Recurrent layers: LSTM cell, unidirectional and bidirectional LSTMs.

The paper's partition/compression controllers (Fig. 6) are bidirectional
LSTMs over per-layer hyperparameter encodings. REINFORCE gradients flow
through them on the autodiff :class:`~repro.nn.tensor.Tensor` tape, but a
whole pass is one tape node, :func:`lstm_recurrence`: it runs D directions
stacked on a leading axis (D = 2 for :class:`BiLSTM`, D = 1 for
:class:`LSTM`), and its backward pass is a hand-written BPTT. That BPTT
reproduces the per-step tape's gradients bit for bit by repeating the
tape's expressions and accumulating each parameter's per-step terms in the
tape's order: ``W_hh`` in ascending time, ``bias`` in BPTT order, in every
direction (see its docstring). Seeded searches are therefore unchanged by
the fusion. :meth:`LSTMCell.forward_step` is the readable per-step
reference.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .init import xavier_uniform
from .layers import Module
from .tensor import Tensor, sigmoid_array, zeros


class LSTMCell(Module):
    """Single-step LSTM cell with fused input/forget/cell/output gates."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        gate_size = 4 * hidden_size
        self.weight_ih = Tensor(
            xavier_uniform((gate_size, input_size), input_size, gate_size, rng),
            requires_grad=True,
            name="lstm.weight_ih",
        )
        self.weight_hh = Tensor(
            xavier_uniform((gate_size, hidden_size), hidden_size, gate_size, rng),
            requires_grad=True,
            name="lstm.weight_hh",
        )
        bias = np.zeros(gate_size)
        # Standard trick: initialize the forget-gate bias to 1.
        bias[hidden_size : 2 * hidden_size] = 1.0
        self.bias = Tensor(bias, requires_grad=True, name="lstm.bias")

    def forward_step(
        self, x: Tensor, state: Tuple[Tensor, Tensor]
    ) -> Tuple[Tensor, Tensor]:
        """One time step: ``x`` is (N, input_size); returns new (h, c).

        The readable per-step reference for :class:`LSTM`. It adds
        ``x @ W_ih^T`` step by step where :class:`LSTM` projects the whole
        sequence at once, so the two agree within floating-point tolerance,
        not bit for bit.
        """
        h, c = state
        gates = x.matmul(self.weight_ih.T) + h.matmul(self.weight_hh.T) + self.bias
        return self.apply_gates(gates, c)

    def apply_gates(self, gates: Tensor, c: Tensor) -> Tuple[Tensor, Tensor]:
        """Gate nonlinearities of one step from its (N, 4*hidden) pre-activations."""
        hs = self.hidden_size
        i_gate = gates[:, 0 * hs : 1 * hs].sigmoid()
        f_gate = gates[:, 1 * hs : 2 * hs].sigmoid()
        g_gate = gates[:, 2 * hs : 3 * hs].tanh()
        o_gate = gates[:, 3 * hs : 4 * hs].sigmoid()
        c_new = f_gate * c + i_gate * g_gate
        h_new = o_gate * c_new.tanh()
        return h_new, c_new

    def initial_state(self, batch_size: int) -> Tuple[Tensor, Tensor]:
        return (
            zeros((batch_size, self.hidden_size)),
            zeros((batch_size, self.hidden_size)),
        )


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


class LSTM(Module):
    """Unidirectional LSTM over a (N, T, input_size) sequence."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, x: Tensor, reverse: bool = False) -> Tensor:
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


class BiLSTM(Module):
    """Bidirectional LSTM: concatenated forward/backward hidden states.

    This is the controller backbone from Fig. 6 of the paper: each DNN layer
    ``x_i`` is fed to a forward LSTM and a backward LSTM, and the per-step
    hidden states ``H_i = [h_fwd_i ; h_bwd_i]`` feed the softmax heads.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.forward_lstm = LSTM(input_size, hidden_size, rng=rng)
        self.backward_lstm = LSTM(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size
        self.output_size = 2 * hidden_size

    def forward(self, x: Tensor) -> Tensor:
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
