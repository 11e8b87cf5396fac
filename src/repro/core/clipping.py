"""Q-value clipping and the Q-learning target (Section 3.1).

ELM / OS-ELM drive their training error to zero for whatever target they are
given, so an outlier target (caused by an unstable network output on an
unseen input) is memorised instead of damped.  The paper therefore clips the
bootstrapped target ``r_t + gamma * (1 - d_t) * max_a Q_theta2(s_{t+1}, a)``
into ``[-1, 1]`` — the range of the environment's shaped rewards — before it
is used to update beta.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def clip_q_target(value: float, low: float = -1.0, high: float = 1.0) -> float:
    """Clip a scalar target into ``[low, high]`` (the paper uses [-1, 1]).

    Pure Python with ``np.clip``'s exact semantics (signed zeros included;
    NaN passes through), at a fraction of its per-call cost.
    """
    if low > high:
        raise ValueError(f"low ({low}) must be <= high ({high})")
    value = float(value)
    if not (value >= low or value != value):
        value = low
    if not (value <= high or value != value):
        value = high
    return float(value)


def q_learning_target(reward: float, done: bool, max_next_q: float, *,
                      gamma: float = 0.99, clip: bool = True,
                      clip_low: float = -1.0, clip_high: float = 1.0) -> float:
    """The (optionally clipped) one-step Q-learning target of Algorithm 1.

    ``target = r_t + gamma * (1 - d_t) * max_a Q_theta2(s_{t+1}, a)`` —
    when the episode has ended (``done``) the bootstrap term is dropped, and
    when ``clip`` is set the result is clipped into ``[clip_low, clip_high]``
    (lines 19 and 22 of Algorithm 1).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    target = float(reward) + gamma * (0.0 if done else 1.0) * float(max_next_q)
    if clip:
        target = clip_q_target(target, clip_low, clip_high)
    return target


def q_learning_targets(rewards: np.ndarray, dones: np.ndarray, max_next_q: np.ndarray, *,
                       gamma: float = 0.99, clip: bool = True,
                       clip_low: float = -1.0, clip_high: float = 1.0) -> np.ndarray:
    """:func:`q_learning_target` over arrays, element-wise bit-identical to it."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    not_done = np.where(np.asarray(dones, dtype=bool), 0.0, 1.0)
    targets = np.asarray(rewards, dtype=float) + gamma * not_done * max_next_q
    if clip:
        if clip_low > clip_high:
            raise ValueError(f"low ({clip_low}) must be <= high ({clip_high})")
        targets = np.clip(targets, clip_low, clip_high)
    return targets


def shaped_cartpole_reward(terminated: bool, truncated: bool, step_in_episode: int,
                           *, success_steps: int = 195) -> float:
    """Reward shaping used with the clipped Q-targets on CartPole.

    The paper relies on the convention that "the maximum reward given by the
    environment is 1 and the minimum reward is -1": instead of the raw +1 per
    step, the agent receives 0 on ordinary steps, -1 when the pole falls
    before ``success_steps`` steps, and +1 when the episode reaches the time
    limit (or survives at least ``success_steps`` steps).  This keeps every
    achievable Q-target inside the clipping range, which is what makes the
    clipping technique a stabiliser rather than a source of bias.
    """
    if terminated and step_in_episode < success_steps:
        return -1.0
    if truncated or (terminated and step_in_episode >= success_steps):
        return 1.0
    return 0.0


def make_reward_shaper(success_steps: int = 195) -> Callable[[bool, bool, int], float]:
    """Return a reward-shaping callable with a fixed success threshold."""
    def shaper(terminated: bool, truncated: bool, step_in_episode: int) -> float:
        return shaped_cartpole_reward(
            terminated, truncated, step_in_episode, success_steps=success_steps
        )
    return shaper
