"""Reverse-mode automatic differentiation on numpy arrays.

This is the foundation of the :mod:`repro.nn` deep-learning substrate. A
:class:`Tensor` wraps a ``numpy.ndarray`` and records the operations applied
to it, so that :meth:`Tensor.backward` can propagate gradients to every
tensor created with ``requires_grad=True``.

The design follows the classic define-by-run tape: each operation returns a
new tensor whose ``_backward`` closure knows how to route the output gradient
to the inputs. Broadcasting is handled by summing gradients over broadcast
dimensions (:func:`_unbroadcast`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid on a raw array, clipped so ``exp`` cannot overflow.

    The clip is spelt as ``minimum(maximum(...))``: the same values as
    ``np.clip`` without its Python-level dispatch.
    """
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -60.0), 60.0)))


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def as_tensor(value: ArrayLike) -> "Tensor":
    """Coerce ``value`` to a :class:`Tensor` (no-op when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


class Tensor:
    """A numpy array plus the tape bookkeeping needed for backprop."""

    __slots__ = (
        "data", "grad", "requires_grad", "_backward", "_parents", "name", "__weakref__"
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        self.data: np.ndarray = np.asarray(
            data.data if isinstance(data, Tensor) else data, dtype=np.float64
        )
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad.astype(np.float64, copy=True)
        else:
            self.grad = self.grad + grad

    def _accumulate_in_order(self, terms: np.ndarray) -> None:
        """Accumulate ``terms[0]``, ``terms[1]``, ... in that order, as one sum.

        The same bytes as one :meth:`_accumulate` per term: the existing
        gradient, if any, leads a left fold over the terms. That fold is a
        single axis-0 ``sum`` whenever numpy runs the reduction row by
        row, that is when a term holds more than one value and axis 0 is
        the outermost in memory. Otherwise numpy would sum the run along
        axis 0 pairwise, so the terms are added one by one.
        """
        if not self.requires_grad:
            return
        if self.grad is not None:
            terms = np.concatenate([self.grad[None], terms])
        strides = [abs(stride) for stride in terms.strides]
        if terms[0].size > 1 and strides[0] >= max(strides[1:]):
            self.grad = terms.sum(axis=0)
            return
        total = terms[0].astype(np.float64, copy=True)
        for term in terms[1:]:
            total = total + term
        self.grad = total

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        The tape is consumed: every visited node drops its backward closure
        and its parents once its gradient has been routed. The graph is then
        freed by reference counting even while something only the cycle
        collector can reclaim still holds the output (a loss or log-prob
        kept in search records). A second ``backward()`` through the same
        graph therefore stops at the consumed nodes and leaves leaf
        gradients untouched; rebuild the graph to differentiate again.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        # Topological order over the tape.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            node._backward = None
            node._parents = ()

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other_t._accumulate(_unbroadcast(grad, other_t.shape))

        return Tensor._make(data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other_t.data, self.shape))
            other_t._accumulate(_unbroadcast(grad * self.data, other_t.shape))

        return Tensor._make(data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other_t.data, self.shape))
            other_t._accumulate(
                _unbroadcast(-grad * self.data / (other_t.data**2), other_t.shape)
            )

        return Tensor._make(data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Matrix ops, reshaping, reductions
    # ------------------------------------------------------------------
    def matmul(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad @ other_t.data.swapaxes(-1, -2), self.shape))
            other_t._accumulate(
                _unbroadcast(self.data.swapaxes(-1, -2) @ grad, other_t.shape)
            )

        return Tensor._make(data, (self, other_t), backward)

    __matmul__ = matmul

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(old_shape))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_t: Optional[Tuple[int, ...]] = tuple(axes) if axes else None
        data = self.data.transpose(axes_t)

        def backward(grad: np.ndarray) -> None:
            if axes_t is None:
                self._accumulate(grad.transpose())
            else:
                inverse = np.argsort(axes_t)
                self._accumulate(grad.transpose(tuple(inverse)))

        return Tensor._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        in_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, in_shape).copy())

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            full = data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                full = np.expand_dims(data, axis=axis)
            mask = (self.data == full).astype(np.float64)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate(mask * g)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = sigmoid_array(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - data**2))

        return Tensor._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Indexing / concatenation
    # ------------------------------------------------------------------
    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        in_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(in_shape, dtype=np.float64)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions symmetrically."""
        if padding == 0:
            return self
        pad_width = [(0, 0)] * (self.ndim - 2) + [(padding, padding)] * 2
        data = np.pad(self.data, pad_width)
        p = padding

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad[..., p:-p, p:-p])

        return Tensor._make(data, (self,), backward)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(index)])

    return Tensor._make(data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.moveaxis(grad, axis, 0)
        for tensor, slab in zip(tensors, slabs):
            tensor._accumulate(slab)

    return Tensor._make(data, tensors, backward)


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


def zeros(shape: Tuple[int, ...], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape: Tuple[int, ...], requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)
