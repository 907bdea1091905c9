"""Unit tests for the autodiff tensor engine."""

import gc
import weakref

import numpy as np
import pytest

from repro.nn.tensor import Tensor, as_tensor, concatenate, ones, stack, zeros


def numeric_grad(f, x: Tensor, index, eps: float = 1e-6) -> float:
    original = x.data[index]
    x.data[index] = original + eps
    up = f()
    x.data[index] = original - eps
    down = f()
    x.data[index] = original
    return (up - down) / (2 * eps)


class TestBasics:
    def test_construction_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.data.dtype == np.float64

    def test_as_tensor_idempotent(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_repr_mentions_grad_flag(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_item_and_numpy(self):
        t = Tensor([[2.5]])
        assert t.item() == 2.5
        assert t.numpy() is t.data

    def test_detach_copies(self):
        t = Tensor([1.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        d.data[0] = 99.0
        assert t.data[0] == 1.0

    def test_zeros_ones(self):
        assert zeros((2, 3)).data.sum() == 0.0
        assert ones((2, 3)).data.sum() == 6.0

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()


class TestArithmeticGradients:
    def test_add_grad(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_mul_grad(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        np.testing.assert_allclose(b.grad, [1.0, 2.0])

    def test_div_grad(self):
        a = Tensor(np.array([6.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        (a / b).backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-1.5])

    def test_pow_grad(self):
        a = Tensor(np.array([3.0]), requires_grad=True)
        (a**2).backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_neg_and_rsub(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        (5.0 - a).backward()
        np.testing.assert_allclose(a.grad, [-1.0])

    def test_rtruediv(self):
        a = Tensor(np.array([4.0]), requires_grad=True)
        (8.0 / a).backward()
        np.testing.assert_allclose(a.grad, [-0.5])

    def test_broadcast_add_sums_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_broadcast_scalar_like(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.array([[2.0]]), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(b.grad, [[4.0]])

    def test_gradient_accumulates_across_uses(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        (a * 2 + a * 3).backward()
        np.testing.assert_allclose(a.grad, [5.0])


class TestMatmulAndShapes:
    def test_matmul_forward(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(12.0).reshape(3, 4))
        np.testing.assert_allclose((a @ b).data, a.data @ b.data)

    def test_matmul_grads_numeric(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        ((a @ b) ** 2).sum().backward()

        def f():
            return float(((a.data @ b.data) ** 2).sum())

        num = numeric_grad(f, a, (1, 2))
        assert abs(num - a.grad[1, 2]) < 1e-5
        num = numeric_grad(f, b, (0, 1))
        assert abs(num - b.grad[0, 1]) < 1e-5

    def test_reshape_roundtrip_grad(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        assert a.grad.shape == (6,)
        np.testing.assert_allclose(a.grad, np.ones(6))

    def test_transpose_grad(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = a.transpose(1, 0)
        assert b.shape == (3, 2)
        (b * Tensor(np.arange(6.0).reshape(3, 2))).sum().backward()
        assert a.grad.shape == (2, 3)

    def test_T_property(self):
        a = Tensor(np.ones((2, 5)))
        assert a.T.shape == (5, 2)


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_mean_axis_tuple(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        out = a.mean(axis=(1, 2))
        assert out.shape == (2,)
        np.testing.assert_allclose(out.data, [1.0, 1.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3, 4), 1.0 / 12))

    def test_max_grad_routes_to_argmax(self):
        a = Tensor(np.array([1.0, 5.0, 3.0]), requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_max_grad_splits_ties(self):
        a = Tensor(np.array([2.0, 2.0]), requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.5, 0.5])


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["exp", "log", "relu", "sigmoid", "tanh"])
    def test_numeric_gradient(self, op):
        rng = np.random.default_rng(1)
        data = rng.uniform(0.2, 2.0, size=(3,))
        a = Tensor(data.copy(), requires_grad=True)
        getattr(a, op)().sum().backward()

        def f():
            return float(getattr(Tensor(a.data), op)().data.sum())

        for i in range(3):
            num = numeric_grad(f, a, (i,))
            assert abs(num - a.grad[i]) < 1e-5, op

    def test_relu_zeroes_negatives(self):
        a = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        a.relu().sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])

    def test_clip_gradient_masks_outside(self):
        a = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        a.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_sigmoid_saturation_is_stable(self):
        a = Tensor(np.array([1000.0, -1000.0]))
        out = a.sigmoid().data
        assert np.isfinite(out).all()


class TestIndexingAndJoin:
    def test_getitem_grad_scatter(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a[0].sum().backward()
        np.testing.assert_allclose(a.grad, [[1, 1, 1], [0, 0, 0]])

    def test_fancy_index_duplicate_accumulates(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        idx = np.array([1, 1, 2])
        a[idx].sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 2.0, 1.0])

    def test_concatenate_grads(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 2).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 3), 2.0))

    def test_stack_grads(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))

    def test_pad2d_roundtrip(self):
        a = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        padded = a.pad2d(1)
        assert padded.shape == (1, 1, 4, 4)
        padded.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((1, 1, 2, 2)))

    def test_pad2d_zero_is_identity(self):
        a = Tensor(np.ones((1, 1, 2, 2)))
        assert a.pad2d(0) is a


class TestGraph:
    def test_diamond_graph_accumulates_once(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = a * 3
        c = a * 4
        (b + c).backward()
        np.testing.assert_allclose(a.grad, [7.0])

    def test_no_grad_without_requires(self):
        a = Tensor(np.array([1.0]))
        b = Tensor(np.array([1.0]), requires_grad=True)
        out = a * b
        out.backward()
        assert a.grad is None
        assert b.grad is not None

    def test_zero_grad(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        (a * 2).backward()
        a.zero_grad()
        assert a.grad is None

    def test_deep_chain(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        out = a
        for _ in range(200):
            out = out * 1.01
        out.backward()
        assert a.grad is not None
        assert np.isfinite(a.grad).all()


class TestTapeRelease:
    """``backward()`` consumes the tape, so it is freed without the GC."""

    def test_intermediates_die_by_refcount_and_grads_are_exact(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        gc.disable()
        try:
            hidden = (x @ w).tanh()
            probe = weakref.ref(hidden)
            loss = (hidden * hidden).sum()
            # The loss is held by a reference cycle, as search records can
            # hold log-probs; only the cycle collector could free it.
            cycle = [loss]
            cycle.append(cycle)
            del hidden
            loss.backward()
            del loss, cycle
            assert probe() is None
        finally:
            gc.enable()
        h = np.tanh(x.data @ w.data)
        np.testing.assert_allclose(w.grad, x.data.T @ (2 * h * (1 - h**2)))

    def test_second_backward_leaves_leaf_gradients_untouched(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = (a * a).sum()
        loss.backward()
        first = a.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(a.grad, first)
        np.testing.assert_allclose(first, [2.0, 4.0])
