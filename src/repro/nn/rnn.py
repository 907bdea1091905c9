"""Recurrent layers: LSTM cell, unidirectional and bidirectional LSTMs.

The paper's partition/compression controllers (Fig. 6) are bidirectional
LSTMs over per-layer hyperparameter encodings. :class:`LSTM` and
:class:`BiLSTM` hold the weights; the controllers run them through the
tape-free kernels in :mod:`repro.rl.kernel`. :meth:`LSTMCell.forward_step`
is the readable per-step recurrence on the autodiff
:class:`~repro.nn.tensor.Tensor` tape.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .init import xavier_uniform
from .layers import Module
from .tensor import Tensor, zeros


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
        """One time step: ``x`` is (N, input_size); returns new (h, c)."""
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


class LSTM(Module):
    """Weights of a unidirectional LSTM over a (N, T, input_size) sequence."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size


class BiLSTM(Module):
    """Bidirectional LSTM: concatenated forward/backward hidden states.

    This is the controller backbone from Fig. 6 of the paper: each DNN layer
    ``x_i`` is fed to a forward LSTM and a backward LSTM, and the per-step
    hidden states ``H_i = [h_fwd_i ; h_bwd_i]`` feed the softmax heads.
    :func:`repro.rl.kernel.bilstm_forward` runs it.
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
