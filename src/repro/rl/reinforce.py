"""Monte-Carlo policy gradient with a moving-average baseline — Sec. VI-D.

    ∇J(θ) = ∇ log πθ(s, a) · (G_t − b)                       (Eqn. 10)

``b`` is "an exponential moving average of the previous rewards", the
standard variance-reduction baseline. One :class:`ReinforceTrainer` per
controller: it accumulates the episode's (log-prob, reward) pairs and
applies a single gradient step per episode.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn.layers import Module
from ..nn.optim import Adam
from ..nn.tensor import Tensor, weighted_sum
from ..obs.trace import get_recorder


class EMABaseline:
    """Exponential moving average of observed returns.

    Warm-up behavior (deliberate): the first observed reward *initializes*
    the moving average, but the baseline returned for that first episode is
    ``0.0``. With no history there is nothing to subtract — an earlier
    revision returned the reward itself, which made the first episode's
    advantage exactly zero and silently discarded its gradient. From the
    second episode on, the returned baseline is the EMA of all *previous*
    rewards (the update folds the new reward in only after reporting).
    """

    def __init__(self, decay: float = 0.8) -> None:
        if not 0.0 <= decay < 1.0:
            raise ValueError("decay must be in [0, 1)")
        self.decay = decay
        self.value: Optional[float] = None

    def update(self, reward: float) -> float:
        """Fold in a new return; returns the baseline *before* the update
        (``0.0`` on the very first call — see the class docstring)."""
        if self.value is None:
            self.value = reward
            return 0.0
        previous = self.value
        self.value = self.decay * self.value + (1.0 - self.decay) * reward
        return previous


class ReinforceTrainer:
    """Applies Eqn. 10 updates to one controller."""

    def __init__(
        self,
        controller: Module,
        lr: float = 5e-3,
        baseline_decay: float = 0.8,
        reward_scale: float = 1.0,
        max_grad_norm: float = 5.0,
        entropy_coeff: float = 0.0,
        name: str = "controller",
    ) -> None:
        self.controller = controller
        self.optimizer = Adam(controller.parameters(), lr=lr)
        self.baseline = EMABaseline(baseline_decay)
        self.reward_scale = reward_scale
        self.max_grad_norm = max_grad_norm
        self.entropy_coeff = entropy_coeff
        #: Label carried on ``rl.update`` trace events, so the report can
        #: plot the partition and compression controllers separately.
        self.name = name

    def _loss_terms(
        self,
        log_probs: Sequence[Tensor],
        entropies: Optional[Sequence[Tensor]],
        advantage: float,
    ) -> List[Tuple[Tensor, float]]:
        """One episode's ``(tensor, weight)`` loss terms: every action's
        ``log_prob * (-advantage)``, then (with ``entropy_coeff > 0``)
        every entropy's ``entropy * (-entropy_coeff)``."""
        terms = [(log_prob, -advantage) for log_prob in log_probs]
        if entropies and self.entropy_coeff > 0.0:
            terms.extend((entropy, -self.entropy_coeff) for entropy in entropies)
        return terms

    def _step(self, loss: Tensor) -> None:
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.clip_grad_norm(self.max_grad_norm)
        self.optimizer.step()

    def episode_loss(
        self,
        episodes: Sequence[Tuple],
        baseline_value: float,
    ) -> Tuple[Optional[Tensor], List[float]]:
        """Accumulated REINFORCE loss of many episodes under one baseline.

        Returns ``(loss, advantages)``: the loss is the sum of every
        episode's per-action ``log_prob * (-advantage)`` terms (plus the
        entropy bonus), so its gradient equals the **sum** of the per-episode
        gradients with the baseline frozen at ``baseline_value`` — the
        property the batched-update equivalence test pins. ``loss`` is
        ``None`` when no episode carries a differentiable term.

        The sum is one :func:`~repro.nn.tensor.weighted_sum` node: the
        controllers' log-probs and entropies are views into one
        categorical-head node per backbone pass, so the whole episode's
        weights reach each head as one dense gradient. Its gradients are
        bit-identical to the per-term ``*``/``+`` chain.
        """
        terms: List[Tuple[Tensor, float]] = []
        advantages: List[float] = []
        for log_probs, reward, entropies in episodes:
            advantage = (reward - baseline_value) * self.reward_scale
            advantages.append(advantage)
            terms.extend(self._loss_terms(log_probs, entropies, advantage))
        return (weighted_sum(terms) if terms else None), advantages

    def update_episode(self, episodes: Sequence[Tuple]) -> List[float]:
        """One Adam step for all of a search episode's node updates.

        Each episode is ``(log_probs, reward, entropies)``: the
        log-probabilities of every action the controller took for one node
        (the Monte-Carlo return ``G`` is the node's terminal reward, since
        intermediate states earn nothing and γ = 1) and the entropies of
        the distributions it sampled. With ``entropy_coeff > 0`` the
        entropies add the standard exploration bonus, discouraging
        premature collapse of the action distribution.

        The EMA baseline is snapshotted once at episode start, every
        node's advantage is computed against that snapshot, and one
        accumulated loss drives one ``backward()`` and one optimizer step.
        Rewards still fold into the EMA in arrival order. A one-episode
        batch is therefore the classic per-episode REINFORCE update.
        Returns the per-episode advantages used.

        Scaling contract (deliberate): ``reward_scale`` multiplies the
        *advantage* only — it sizes the gradient step. The EMA baseline
        tracks the **raw** reward, so the variance-reduction state is
        independent of the scale knob (rescaling would otherwise change
        what the baseline converges to).
        """
        if not episodes:
            return []
        baseline_value = (
            self.baseline.value if self.baseline.value is not None else 0.0
        )
        recorder = get_recorder()
        for log_probs, reward, entropies in episodes:
            self.baseline.update(reward)
            if recorder.enabled:
                advantage = (reward - baseline_value) * self.reward_scale
                mean_entropy = (
                    float(np.mean([np.mean(e.data) for e in entropies]))
                    if entropies
                    else None
                )
                recorder.event(
                    "rl.update",
                    controller=self.name,
                    reward=float(reward),
                    baseline=float(baseline_value),
                    advantage=float(advantage),
                    entropy=mean_entropy,
                    actions=len(log_probs),
                )
        loss, advantages = self.episode_loss(episodes, baseline_value)
        if loss is not None:
            self._step(loss)
        return advantages

