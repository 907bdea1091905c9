"""Oracle: the optimizer, gradient-sum and sampling code before it was fused.

Verbatim copies of the per-parameter ``Adam`` (its ``step`` and the
``clip_grad_norm`` it inherited), the per-step ``_accumulate`` chain the
BiLSTM's backward made for ``W_hh`` and ``bias``, and the policy heads'
one-``rng.choice``-per-row draw. Tests run them beside the flat-buffer
optimizer, the ordered gradient sum and the cdf draw to prove those
bit-identical.
"""

from typing import Iterable, List, Optional

import numpy as np

from repro.nn.tensor import Tensor


class ReferenceAdam:
    """Adam over a parameter list, one parameter at a time."""

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
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._v: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all gradients so their global L2 norm is at most ``max_norm``."""
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
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        for i, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            if self._m[i] is None:
                self._m[i] = np.zeros_like(parameter.data)
                self._v[i] = np.zeros_like(parameter.data)
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * grad**2
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            parameter.data = parameter.data - self.lr * m_hat / (
                np.sqrt(v_hat) + self.eps
            )


def accumulate_chain(
    prior: Optional[np.ndarray], terms: Iterable[np.ndarray]
) -> Optional[np.ndarray]:
    """The gradient after one ``Tensor._accumulate`` per term, in order."""
    grad = prior
    for term in terms:
        if grad is None:
            grad = term.astype(np.float64, copy=True)
        else:
            grad = grad + term
    return grad


def choice_draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """One row's action: a ``CategoricalHead.draw`` before the cdf path."""
    return int(rng.choice(len(probs), p=probs))
