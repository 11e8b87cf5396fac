"""Action-selection and update-gating policies (Algorithm 1, Determine/Update).

The paper's exploration parameter ``epsilon_1 = 0.7`` is the probability of
taking the *greedy* action (lines 10–13: "if random value r1 < eps1 then
argmax"), i.e. the complement of the usual epsilon-greedy convention.  The
``epsilon_2 = 0.5`` parameter gates the *random update* of Section 3.2: each
step is used for sequential training only with probability eps2, which breaks
the temporal correlation of consecutive samples without an experience-replay
buffer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.seeding import np_random
from repro.utils.validation import check_probability


class EpsilonGreedyPolicy:
    """Greedy-with-probability-epsilon action selection (the paper's convention).

    Parameters
    ----------
    greedy_probability:
        Probability of choosing ``argmax_a Q(s, a)``; otherwise a uniformly
        random action is taken.  The paper sets this to 0.7.
    n_actions:
        Size of the discrete action set.
    """

    def __init__(self, greedy_probability: float, n_actions: int, *,
                 rng: Optional[np.random.Generator] = None,
                 seed: Optional[int] = None) -> None:
        self.greedy_probability = check_probability(greedy_probability,
                                                    name="greedy_probability")
        if n_actions <= 0:
            raise ValueError(f"n_actions must be positive, got {n_actions}")
        self.n_actions = int(n_actions)
        self._rng = rng if rng is not None else np_random(seed)[0]
        self.greedy_selections = 0
        self.random_selections = 0

    def select(self, q_values: np.ndarray, *, explore: bool = True) -> int:
        """Choose an action given per-action Q-values.

        With ``explore=False`` the greedy action is always returned (used for
        evaluation rollouts).
        """
        q_values = np.asarray(q_values, dtype=float).reshape(-1)
        if q_values.shape[0] != self.n_actions:
            raise ValueError(
                f"expected {self.n_actions} Q-values, got {q_values.shape[0]}"
            )
        return self._select(q_values, explore)

    def _select(self, q_values: np.ndarray, explore: bool) -> int:
        """Trusted :meth:`select`: ``q_values`` is an array of ``n_actions`` floats."""
        if explore and self._rng.random() >= self.greedy_probability:
            self.random_selections += 1
            return int(self._rng.integers(self.n_actions))
        self.greedy_selections += 1
        return int(q_values.argmax())

    def select_batch(self, q_values: np.ndarray, *, explore: bool = True) -> np.ndarray:
        """Choose one action per row of a ``(B, n_actions)`` Q-value matrix.

        The whole batch is decided with two vectorized RNG draws (one uniform
        vector for the greedy/random gate, one integer vector for the random
        actions), so the per-row decisions are independent but the stream
        consumption differs from ``B`` sequential :meth:`select` calls — the
        batched path is its own deterministic stream for a given seed.
        """
        q_values = np.asarray(q_values, dtype=float)
        if q_values.ndim != 2 or q_values.shape[1] != self.n_actions:
            raise ValueError(
                f"expected a (batch, {self.n_actions}) Q-value matrix, got shape {q_values.shape}"
            )
        greedy = np.argmax(q_values, axis=1)
        if not explore:
            self.greedy_selections += q_values.shape[0]
            return greedy
        batch = q_values.shape[0]
        take_random = self._rng.random(batch) >= self.greedy_probability
        random_actions = self._rng.integers(self.n_actions, size=batch)
        self.random_selections += int(take_random.sum())
        self.greedy_selections += batch - int(take_random.sum())
        return np.where(take_random, random_actions, greedy)

    def reset_counters(self) -> None:
        self.greedy_selections = 0
        self.random_selections = 0


class RandomUpdateGate:
    """Bernoulli gate deciding whether a step triggers a sequential update.

    The paper's random update (Section 3.2) replaces experience replay: OS-ELM
    cannot benefit from revisiting identical samples (the analytic update is
    idempotent for repeated data), and a replay buffer would not fit on the
    device, so temporal correlation is instead reduced by randomly skipping
    updates with probability ``1 - update_probability``.
    """

    def __init__(self, update_probability: float, *,
                 rng: Optional[np.random.Generator] = None,
                 seed: Optional[int] = None) -> None:
        self.update_probability = check_probability(update_probability,
                                                    name="update_probability")
        self._rng = rng if rng is not None else np_random(seed)[0]
        self.accepted = 0
        self.rejected = 0

    def should_update(self) -> bool:
        """Sample the gate: True means "perform the sequential update this step"."""
        if self._rng.random() < self.update_probability:
            self.accepted += 1
            return True
        self.rejected += 1
        return False

    @property
    def acceptance_rate(self) -> float:
        total = self.accepted + self.rejected
        return self.accepted / total if total else 0.0

    def reset_counters(self) -> None:
        self.accepted = 0
        self.rejected = 0
