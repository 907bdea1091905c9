"""Gradient-descent optimizer for the numpy NN substrate."""

from __future__ import annotations

from typing import Iterable, List, Union

import numpy as np

from .tensor import Tensor


class Adam:
    """Adam optimizer (Kingma & Ba) over one flat parameter buffer.

    Construction copies every parameter's values into one flat buffer and
    makes each parameter's ``.data`` a view into it; the first and second
    moments are flat buffers of the same length. :meth:`step` then runs
    the update as a handful of whole-buffer array operations. The update
    is elementwise, so the values are bit-identical to running it
    parameter by parameter. A parameter without a gradient keeps its
    values and moments.

    Parameters must stay views: write new values in place
    (``parameter.data[...] = values``, as :meth:`Module.load_state_dict`
    does). :meth:`step` raises if a parameter's ``.data`` was rebound,
    rather than train a buffer nothing reads.
    """

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if len({id(p) for p in self.parameters}) != len(self.parameters):
            raise ValueError("optimizer received the same parameter twice")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        sizes = [p.data.size for p in self.parameters]
        self._bounds = np.cumsum([0] + sizes)
        self._data = np.concatenate([p.data.ravel() for p in self.parameters])
        for parameter, start, stop in zip(
            self.parameters, self._bounds[:-1], self._bounds[1:]
        ):
            parameter.data = self._data[start:stop].reshape(parameter.data.shape)
        self._m = np.zeros_like(self._data)
        self._v = np.zeros_like(self._data)
        self._grad = np.empty_like(self._data)
        self._work = np.empty_like(self._data)

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all gradients so their global L2 norm is at most ``max_norm``.

        The squared norm is summed parameter by parameter, in order: one
        sum over all gradients at once would round differently.
        """
        total = 0.0
        for parameter in self.parameters:
            if parameter.grad is not None:
                total += float((parameter.grad**2).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0.0:
            scale = max_norm / norm
            for parameter in self.parameters:
                if parameter.grad is not None:
                    parameter.grad = parameter.grad * scale
        return norm

    def step(self) -> None:
        for parameter in self.parameters:
            if parameter.data.base is not self._data:
                raise RuntimeError(
                    f"parameter {parameter.name or parameter!r} no longer views "
                    "the optimizer's buffer: write values in place with "
                    "data[...] = ... instead of rebinding .data"
                )
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        present = [i for i, p in enumerate(self.parameters) if p.grad is not None]
        if not present:
            return
        # The buffer positions that have a gradient: all of them, or the
        # concatenated ranges of the parameters that do.
        index: Union[slice, np.ndarray] = slice(None)
        if len(present) < len(self.parameters):
            index = np.concatenate(
                [np.arange(self._bounds[i], self._bounds[i + 1]) for i in present]
            )
        # Views when every parameter has a gradient, copies otherwise. All
        # arithmetic runs in place in preallocated buffers: fresh
        # buffer-sized temporaries cost more than the arithmetic.
        data, m, v = self._data[index], self._m[index], self._v[index]
        size = len(m)
        grad, work = self._grad[:size], self._work[:size]
        np.concatenate([self.parameters[i].grad.ravel() for i in present], out=grad)
        if self.weight_decay:
            grad += np.multiply(self.weight_decay, data, out=work)
        # m = beta1 * m + (1 - beta1) * grad; v likewise with grad**2.
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, grad, out=work)
        v *= self.beta2
        v += np.multiply(1.0 - self.beta2, np.square(grad, out=grad), out=work)
        # data -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
        update = np.divide(m, bias1, out=grad)
        update *= self.lr
        rms = np.sqrt(np.divide(v, bias2, out=work), out=work)
        rms += self.eps
        update /= rms
        data -= update
        if isinstance(index, np.ndarray):
            self._data[index] = data
            self._m[index] = m
            self._v[index] = v
