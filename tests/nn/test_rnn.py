"""Unit tests for LSTM layers."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import ExperimentConfig, run_scenario
from repro.network.scenarios import get_scenario
from repro.nn.optim import Adam
from repro.nn.rnn import BiLSTM, LSTM, LSTMCell
from repro.nn.tensor import Tensor, concatenate, stack
from tests import tape_heads


def tape_lstm_forward(self, x, reverse=False):
    """Oracle: the recurrence recorded step by step on the tape.

    This is the hoisted-projection loop ``LSTM.forward`` ran before the
    recurrence became one ``lstm_recurrence`` node, with its per-step
    method inlined verbatim. ``LSTMCell.forward_step`` cannot serve as the
    oracle: it projects ``x`` per step, which is not bit-exact.
    """
    n, t, _ = x.shape
    projected = x.matmul(self.cell.weight_ih.T)  # (N, T, 4*hidden)
    state = self.cell.initial_state(n)
    outputs = []
    steps = range(t - 1, -1, -1) if reverse else range(t)
    for step in steps:
        h, c = state
        gates = projected[:, step, :] + h.matmul(self.cell.weight_hh.T) + self.cell.bias
        state = self.cell.apply_gates(gates, c)
        outputs.append(state[0])
    if reverse:
        outputs.reverse()
    return stack(outputs, axis=1)


def tape_bilstm_forward(self, x):
    """Oracle: both directions stepped on the tape, joined by ``concatenate``.

    This is ``BiLSTM.forward`` before its directions became one stacked
    ``lstm_recurrence`` node: two ``LSTM`` passes and a concatenation.
    """
    fwd = tape_lstm_forward(self.forward_lstm, x)
    bwd = tape_lstm_forward(self.backward_lstm, x, reverse=True)
    return concatenate([fwd, bwd], axis=2)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestLSTMCell:
    def test_step_shapes(self, rng):
        cell = LSTMCell(4, 8, rng=rng)
        h, c = cell.initial_state(3)
        h2, c2 = cell.forward_step(Tensor(rng.normal(size=(3, 4))), (h, c))
        assert h2.shape == (3, 8)
        assert c2.shape == (3, 8)

    def test_forget_bias_initialized_to_one(self, rng):
        cell = LSTMCell(4, 8, rng=rng)
        np.testing.assert_allclose(cell.bias.data[8:16], np.ones(8))

    def test_state_changes_with_input(self, rng):
        cell = LSTMCell(2, 4, rng=rng)
        state = cell.initial_state(1)
        h1, _ = cell.forward_step(Tensor(np.ones((1, 2))), state)
        h2, _ = cell.forward_step(Tensor(-np.ones((1, 2))), state)
        assert not np.allclose(h1.data, h2.data)

    def test_gradients_flow_through_steps(self, rng):
        cell = LSTMCell(3, 5, rng=rng)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        state = cell.initial_state(2)
        for _ in range(3):
            state = cell.forward_step(x, state)
        (state[0] ** 2).sum().backward()
        assert x.grad is not None
        assert cell.weight_ih.grad is not None


class TestLSTM:
    def test_sequence_output_shape(self, rng):
        lstm = LSTM(4, 6, rng=rng)
        out = lstm(Tensor(rng.normal(size=(2, 5, 4))))
        assert out.shape == (2, 5, 6)

    def test_reverse_processes_backwards(self, rng):
        lstm = LSTM(2, 3, rng=rng)
        x = rng.normal(size=(1, 4, 2))
        fwd = lstm(Tensor(x))
        rev = lstm(Tensor(x), reverse=True)
        # Reversed run on reversed input equals forward outputs reversed.
        rev_of_flipped = lstm(Tensor(x[:, ::-1].copy()))
        np.testing.assert_allclose(rev.data, rev_of_flipped.data[:, ::-1], atol=1e-12)
        assert not np.allclose(fwd.data, rev.data)

    def test_first_reverse_step_sees_only_last_input(self, rng):
        lstm = LSTM(2, 3, rng=rng)
        x = rng.normal(size=(1, 4, 2))
        rev = lstm(Tensor(x), reverse=True)
        # Output at the last position only depends on the last input.
        x2 = x.copy()
        x2[:, :3] = 0.0
        rev2 = lstm(Tensor(x2), reverse=True)
        np.testing.assert_allclose(rev.data[:, 3], rev2.data[:, 3], atol=1e-12)


class TestFusedRecurrence:
    """``lstm_recurrence`` against the per-step tape, bit for bit.

    ``LSTM`` is its one-direction case, ``BiLSTM`` its stacked
    two-direction case; each is pinned against its own tape oracle.
    """

    @staticmethod
    def _run(forward, seed, n, t, hidden, reverse, calls):
        rng = np.random.default_rng(seed)
        lstm = LSTM(5, hidden, rng=np.random.default_rng(seed + 1))
        x = Tensor(rng.normal(size=(n, t, 5)), requires_grad=True)
        outputs, loss = [], None
        for call in range(calls):
            out = forward(lstm, x, reverse=reverse != bool(call % 2))
            outputs.append(out.data)
            term = (out * Tensor(rng.normal(size=out.shape))).sum()
            loss = term if loss is None else loss + term
        loss.backward()
        cell = lstm.cell
        grads = [x.grad, cell.weight_ih.grad, cell.weight_hh.grad, cell.bias.grad]
        return outputs, grads

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 6),
        t=st.integers(1, 12),
        hidden=st.sampled_from([3, 32]),
        reverse=st.booleans(),
        calls=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_outputs_and_gradients_equal_tape(self, seed, n, t, hidden, reverse, calls):
        args = (seed, n, t, hidden, reverse, calls)
        tape_out, tape_grads = self._run(tape_lstm_forward, *args)
        fused_out, fused_grads = self._run(LSTM.forward, *args)
        for expected, actual in zip(tape_out, fused_out):
            assert np.array_equal(expected, actual)
        for expected, actual in zip(tape_grads, fused_grads):
            assert np.array_equal(expected, actual)

    @staticmethod
    def _run_bilstm(forward, seed, n, t, hidden, calls, preset):
        rng = np.random.default_rng(seed)
        bilstm = BiLSTM(5, hidden, rng=np.random.default_rng(seed + 1))
        x = Tensor(rng.normal(size=(n, t, 5)), requires_grad=True)
        params = list(bilstm.parameters())
        outputs, loss = [], None
        for _ in range(calls):
            out = forward(bilstm, x)
            outputs.append(out.data)
            term = (out * Tensor(rng.normal(size=out.shape))).sum()
            loss = term if loss is None else loss + term
        if preset:
            # Gradients already held before backward: each per-step term
            # must be added onto them one at a time, in the tape's order.
            for tensor in [x, *params]:
                tensor.grad = rng.normal(size=tensor.shape)
        loss.backward()
        return outputs, [x.grad] + [p.grad for p in params]

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 6),
        t=st.integers(1, 12),
        hidden=st.sampled_from([3, 32]),
        calls=st.integers(1, 3),
        preset=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_directions_equal_two_tapes(self, seed, n, t, hidden, calls, preset):
        args = (seed, n, t, hidden, calls, preset)
        tape_out, tape_grads = self._run_bilstm(tape_bilstm_forward, *args)
        fused_out, fused_grads = self._run_bilstm(BiLSTM.forward, *args)
        assert len(fused_grads) == 7  # x and six parameters
        for expected, actual in zip(tape_out, fused_out):
            assert np.array_equal(expected, actual)
        for expected, actual in zip(tape_grads, fused_grads):
            assert np.array_equal(expected, actual)

    def test_single_node_per_bilstm_pass(self, rng):
        bilstm = BiLSTM(4, 6, rng=rng)
        x = Tensor(rng.normal(size=(2, 7, 4)))
        out = bilstm(x)
        cells = (bilstm.forward_lstm.cell, bilstm.backward_lstm.cell)
        proj_f, proj_b, *recurrent = out._parents
        assert recurrent == [
            cells[0].weight_hh, cells[1].weight_hh, cells[0].bias, cells[1].bias
        ]
        for projection, cell in zip((proj_f, proj_b), cells):
            assert projection.shape == (2, 7, 24)
            assert projection._parents[0] is x
            assert projection._parents[1]._parents == (cell.weight_ih,)

    def test_single_node_per_direction(self, rng):
        lstm = LSTM(4, 6, rng=rng)
        out = lstm(Tensor(rng.normal(size=(2, 7, 4))))
        projected, weight_hh, bias = out._parents
        assert weight_hh is lstm.cell.weight_hh and bias is lstm.cell.bias
        assert projected.shape == (2, 7, 24)

    def test_stepped_reference_within_tolerance(self, rng):
        """``forward_step`` is the readable reference, close but not exact."""
        lstm = LSTM(4, 6, rng=rng)
        x = Tensor(rng.normal(size=(3, 5, 4)))
        for reverse in (False, True):
            state = lstm.cell.initial_state(3)
            stepped = [None] * 5
            for step in range(4, -1, -1) if reverse else range(5):
                state = lstm.cell.forward_step(x[:, step, :], state)
                stepped[step] = state[0].data
            fused = lstm(x, reverse=reverse).data
            np.testing.assert_allclose(fused, np.stack(stepped, axis=1), rtol=0, atol=1e-12)

    def test_search_trajectory_bytes_equal_tape(self, monkeypatch):
        """Every Adam step of a seeded scene sees byte-identical grads and
        leaves byte-identical params, fused or stepped on the tape: the
        oracle runs each BiLSTM direction step by step, joins them with
        ``concatenate``, records the policy heads row by row and the
        REINFORCE loss as a left-folded chain (``tests/tape_heads.py``)."""
        scene = get_scenario("vgg11", "phone", "4G (weak) indoor")
        config = ExperimentConfig(
            tree_episodes=2, branch_episodes=3, emulation_requests=10, seed=7
        )
        original_step = Adam.step
        oracle_calls = []

        def counted_oracle(self, x):
            oracle_calls.append(x.shape)
            return tape_bilstm_forward(self, x)

        def trajectory(forward, per_row_heads=False):
            digests = []

            def recording_step(self):
                grads = [p.grad.tobytes() for p in self.parameters if p.grad is not None]
                original_step(self)
                params = [p.data.tobytes() for p in self.parameters]
                digests.append(hashlib.sha256(b"".join(grads + params)).hexdigest())

            with monkeypatch.context() as patch:
                patch.setattr(BiLSTM, "forward", forward)
                patch.setattr(Adam, "step", recording_step)
                if per_row_heads:
                    tape_heads.install(patch)
                run_scenario(scene, config, run_field=False, run_emu=False)
            return digests

        tape = trajectory(counted_oracle, per_row_heads=True)
        assert len(tape) > 10
        assert oracle_calls  # the oracle, not the fused node, ran
        assert trajectory(BiLSTM.forward) == tape


class TestBiLSTM:
    def test_output_concatenates_directions(self, rng):
        bilstm = BiLSTM(4, 5, rng=rng)
        out = bilstm(Tensor(rng.normal(size=(2, 3, 4))))
        assert out.shape == (2, 3, 10)
        assert bilstm.output_size == 10

    def test_each_position_sees_whole_sequence(self, rng):
        bilstm = BiLSTM(2, 4, rng=rng)
        x = rng.normal(size=(1, 5, 2))
        base = bilstm(Tensor(x)).data
        # Perturbing the last element must change position-0 output
        # (through the backward LSTM).
        x2 = x.copy()
        x2[0, -1] += 10.0
        changed = bilstm(Tensor(x2)).data
        assert not np.allclose(base[0, 0], changed[0, 0])

    def test_gradients_reach_both_directions(self, rng):
        bilstm = BiLSTM(3, 4, rng=rng)
        x = Tensor(rng.normal(size=(1, 4, 3)), requires_grad=True)
        (bilstm(x) ** 2).sum().backward()
        assert bilstm.forward_lstm.cell.weight_ih.grad is not None
        assert bilstm.backward_lstm.cell.weight_ih.grad is not None
        assert x.grad is not None
