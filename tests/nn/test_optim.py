"""Unit tests for the optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import Linear
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from tests.optim_reference import ReferenceAdam


def quadratic_loss(param: Tensor) -> Tensor:
    target = Tensor(np.array([3.0, -2.0]))
    diff = param - target
    return (diff * diff).sum()


def run_steps(optimizer, param, steps=200):
    for _ in range(steps):
        loss = quadratic_loss(param)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    return quadratic_loss(param).item()


class TestAdam:
    def test_converges_on_quadratic(self):
        param = Tensor(np.zeros(2), requires_grad=True)
        final = run_steps(Adam([param], lr=0.1), param, steps=300)
        assert final < 1e-6

    def test_bias_correction_first_step(self):
        param = Tensor(np.array([0.0]), requires_grad=True)
        optimizer = Adam([param], lr=0.1)
        param.grad = np.array([1.0])
        optimizer.step()
        # First Adam step magnitude should be ~lr regardless of grad scale.
        assert abs(abs(param.data[0]) - 0.1) < 1e-6

    def test_weight_decay(self):
        param = Tensor(np.array([5.0]), requires_grad=True)
        optimizer = Adam([param], lr=0.01, weight_decay=0.5)
        param.grad = np.zeros(1)
        optimizer.step()
        assert param.data[0] < 5.0

    def test_skips_parameters_without_grad(self):
        param = Tensor(np.array([1.0]), requires_grad=True)
        Adam([param], lr=0.1).step()  # no backward -> no grad -> no change
        assert param.data[0] == 1.0

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_duplicate_parameter_rejected(self):
        param = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ValueError, match="twice"):
            Adam([param, param])

    def test_parameters_become_views_of_one_buffer(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        before = [p.data.copy() for p in layer.parameters()]
        optimizer = Adam(layer.parameters())
        for parameter, values in zip(layer.parameters(), before):
            assert parameter.data.base is optimizer._data
            np.testing.assert_array_equal(parameter.data, values)

    def test_rebound_parameter_raises(self):
        param = Tensor(np.zeros(2), requires_grad=True)
        optimizer = Adam([param], lr=0.1)
        param.data = np.ones(2)
        param.grad = np.ones(2)
        with pytest.raises(RuntimeError, match="in place"):
            optimizer.step()

    def test_missing_grad_keeps_values_and_moments(self):
        first = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        second = Tensor(np.array([3.0]), requires_grad=True)
        optimizer = Adam([first, second], lr=0.1)
        first.grad = np.array([0.5, -0.5])
        optimizer.step()
        first.grad = None
        second.grad = np.array([1.0])
        optimizer.step()
        # The first parameter's moment is still the one its first step left.
        np.testing.assert_array_equal(
            optimizer._m[:2], (1.0 - 0.9) * np.array([0.5, -0.5])
        )
        assert optimizer._m[2] == (1.0 - 0.9) * 1.0
        assert first.data[0] == pytest.approx(0.9)

    def test_load_state_dict_keeps_views(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        optimizer = Adam(layer.parameters())
        state = {name: np.full(p.shape, 0.5) for name, p in layer.named_parameters()}
        layer.load_state_dict(state)
        for parameter in layer.parameters():
            assert parameter.data.base is optimizer._data
        np.testing.assert_array_equal(optimizer._data, 0.5)


@st.composite
def adam_runs(draw):
    shapes = draw(
        st.lists(
            st.sampled_from([(), (1,), (3,), (2, 3), (4, 1), (2, 2, 2)]),
            min_size=1,
            max_size=4,
        )
    )
    steps = draw(st.integers(1, 6))
    # Per step, per parameter: which parameters get a gradient.
    present = draw(
        st.lists(
            st.lists(st.booleans(), min_size=len(shapes), max_size=len(shapes)),
            min_size=steps,
            max_size=steps,
        )
    )
    return (
        shapes,
        present,
        draw(st.sampled_from([0.0, 0.01, 0.5])),
        draw(st.sampled_from([None, 0.05, 1.0, 100.0])),
        draw(st.booleans()),  # transposed (non-contiguous) gradients
        draw(st.integers(0, 2**31 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(adam_runs())
def test_flat_adam_matches_per_parameter_reference(run):
    """The flat buffer leaves byte-identical values, gradients and clip
    norms after every step: random shapes, weight decay, clipping, and
    parameters with no gradient in some steps."""
    shapes, present, weight_decay, max_norm, transposed, seed = run
    rng = np.random.default_rng(seed)
    initial = [rng.standard_normal(shape) for shape in shapes]
    flat_params = [Tensor(values, requires_grad=True) for values in initial]
    ref_params = [Tensor(values.copy(), requires_grad=True) for values in initial]
    flat = Adam(flat_params, lr=0.05, weight_decay=weight_decay)
    ref = ReferenceAdam(ref_params, lr=0.05, weight_decay=weight_decay)
    for mask in present:
        for a, b, shape, has_grad in zip(flat_params, ref_params, shapes, mask):
            grad = None
            if has_grad:
                grad = rng.standard_normal(shape[::-1]).T if transposed else (
                    rng.standard_normal(shape)
                )
                grad = grad * 10.0 ** rng.integers(-3, 3)
            a.grad = None if grad is None else grad.copy()
            b.grad = None if grad is None else grad.copy()
        if max_norm is not None:
            assert flat.clip_grad_norm(max_norm) == ref.clip_grad_norm(max_norm)
        for a, b in zip(flat_params, ref_params):
            assert (a.grad is None) == (b.grad is None)
            if a.grad is not None:
                assert a.grad.tobytes() == b.grad.tobytes()
        flat.step()
        ref.step()
        for a, b in zip(flat_params, ref_params):
            assert a.data.shape == b.data.shape
            assert a.data.tobytes() == b.data.tobytes()


class TestGradClipping:
    def test_clip_reduces_large_norm(self):
        param = Tensor(np.zeros(4), requires_grad=True)
        optimizer = Adam([param], lr=0.1)
        param.grad = np.full(4, 100.0)
        norm = optimizer.clip_grad_norm(1.0)
        assert norm == pytest.approx(200.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0)

    def test_clip_leaves_small_norm(self):
        param = Tensor(np.zeros(2), requires_grad=True)
        optimizer = Adam([param], lr=0.1)
        param.grad = np.array([0.1, 0.1])
        optimizer.clip_grad_norm(5.0)
        np.testing.assert_allclose(param.grad, [0.1, 0.1])
