"""Recurrent layers: LSTM cell, unidirectional and bidirectional LSTMs.

The paper's partition/compression controllers (Fig. 6) are bidirectional
LSTMs over per-layer hyperparameter encodings. REINFORCE gradients flow
through them on the autodiff :class:`~repro.nn.tensor.Tensor` tape, but a
whole direction's recurrence is one tape node, :func:`lstm_recurrence`,
whose backward pass is a hand-written BPTT. That BPTT reproduces the
per-step tape's gradients bit for bit (see its docstring), so seeded
searches are unchanged by the fusion. :meth:`LSTMCell.forward_step` is the
readable per-step reference.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .init import xavier_uniform
from .layers import Module
from .tensor import Tensor, concatenate, sigmoid_array, zeros


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
    projected: Tensor,
    weight_hh: Tensor,
    bias: Tensor,
    hidden_size: int,
    reverse: bool = False,
) -> Tensor:
    """One LSTM direction's whole recurrence as a single tape node.

    ``projected`` is the hoisted input projection ``x @ W_ih^T`` of shape
    (N, T, 4*hidden); the result holds the hidden state of every step,
    (N, T, hidden). ``reverse`` processes the steps from T-1 down to 0.
    The forward pass runs in raw numpy and keeps each step's gate
    activations; the node's backward closure runs BPTT over them.

    The BPTT is tape-exact: its gradients are bit-identical to those of
    the same recurrence recorded step by step on the tape (a fresh
    ``W_hh.T`` per step, four gate slices, ``sigmoid``/``tanh`` nodes).
    Two things make it so:

    - every expression is the tape's own, e.g. the sigmoid grad
      ``grad * s * (1.0 - s)``, the tanh grad ``grad * (1.0 - t**2)``,
      ``dh_prev = dgates @ WT.swapaxes(-1, -2)`` and the ``W_hh`` term
      ``(h_prev.swapaxes(-1, -2) @ dgates).transpose()``;
    - each parameter receives one ``_accumulate`` per step in the order
      the tape's topological sweep delivers them: the ``W_hh`` terms
      (including the all-zero one from the initial state) in ascending
      time index in both directions, the ``bias`` terms in BPTT order,
      the reverse of processing order.

    Floating-point addition is not associative, so any other order
    drifts in the last bits and seeded searches would no longer replay.
    """
    hs = hidden_size
    xp = projected.data
    b = bias.data
    wt = weight_hh.data.transpose()
    n, t, _ = xp.shape
    h = np.zeros((n, hs))
    c = np.zeros((n, hs))
    saved: List[tuple] = []
    outputs: List[np.ndarray] = []
    for step in range(t - 1, -1, -1) if reverse else range(t):
        gates = xp[:, step, :] + h @ wt
        gates = gates + b
        # One sigmoid over all four slots; the cell slot is overwritten
        # with 1.0 so ``scale`` below multiplies it through exactly.
        scale = sigmoid_array(gates)
        g = np.tanh(gates[:, 2 * hs : 3 * hs])
        scale[:, 2 * hs : 3 * hs] = 1.0
        i, f, o = scale[:, :hs], scale[:, hs : 2 * hs], scale[:, 3 * hs :]
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        slope = 1.0 - scale
        slope[:, 2 * hs : 3 * hs] = 1.0 - g**2
        partner = np.concatenate([g, c, i, tc], axis=1)
        saved.append((step, h, f, o, 1.0 - tc**2, partner, scale, slope))
        h, c = o * tc, c_new
        outputs.append(h)
    if reverse:
        outputs.reverse()

    def backward(grad: np.ndarray) -> None:
        d_projected = np.zeros(xp.shape)
        w_terms: List[np.ndarray] = []
        b_terms: List[np.ndarray] = []
        dh_next: Optional[np.ndarray] = None
        dc_next: Optional[np.ndarray] = None
        for step, h_prev, f, o, tanh_slope, partner, scale, slope in reversed(saved):
            dh = grad[:, step, :] if dh_next is None else grad[:, step, :] + dh_next
            dc = dh * o * tanh_slope
            if dc_next is not None:
                dc = dc + dc_next
            # Per slot this is the tape's ``grad * s * (1.0 - s)`` with
            # grad = dc*g, dc*c_prev, dh*tc for the i, f, o gates, and
            # ``grad * (1.0 - g**2)`` with grad = dc*i for the cell gate.
            dgates = np.concatenate([dc, dc, dc, dh], axis=1) * partner * scale * slope
            d_projected[:, step, :] = dgates
            w_terms.append((h_prev.swapaxes(-1, -2) @ dgates).transpose())
            b_terms.append(dgates.sum(axis=0))
            dh_next = dgates @ wt.swapaxes(-1, -2)
            dc_next = dc * f
        projected._accumulate(d_projected)
        # w_terms and b_terms are in BPTT order; W_hh wants ascending time.
        for term in w_terms if reverse else reversed(w_terms):
            weight_hh._accumulate(term)
        for term in b_terms:
            bias._accumulate(term)

    return Tensor._make(
        np.stack(outputs, axis=1), (projected, weight_hh, bias), backward
    )


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
            projected, self.cell.weight_hh, self.cell.bias, self.hidden_size, reverse
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
        """(N, T, input_size) -> (N, T, 2*hidden_size)."""
        fwd = self.forward_lstm(x)
        bwd = self.backward_lstm(x, reverse=True)
        return concatenate([fwd, bwd], axis=2)
