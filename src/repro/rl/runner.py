"""Greedy evaluation of a trained agent.

Training runs through :meth:`repro.training.Trainer.fit`; this module
plays no-exploration episodes with the result.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.core.agents import QLearningAgent
from repro.envs.core import Env
from repro.training.config import TrainingConfig
from repro.training.trainer import resolve_env as _resolve_env
from repro.utils.seeding import spawn_seeds


def evaluate_agent(agent: QLearningAgent, env: Union[str, Env, None] = None, *,
                   n_episodes: int = 10, config: TrainingConfig = TrainingConfig()
                   ) -> np.ndarray:
    """Run greedy (no-exploration) evaluation episodes and return their lengths.

    When ``config.seed`` is set, each episode's initial state is drawn from
    its own :func:`~repro.utils.seeding.spawn_seeds`-derived seed, so the
    evaluation suite is reproducible episode-by-episode and independent of
    how much entropy training consumed from the environment's stream.
    """
    if n_episodes <= 0:
        raise ValueError("n_episodes must be positive")
    environment = _resolve_env(env, config)
    episode_seeds = (spawn_seeds(config.seed, n_episodes) if config.seed is not None
                     else [None] * n_episodes)
    lengths = np.zeros(n_episodes, dtype=int)
    for i in range(n_episodes):
        state, _ = environment.reset(seed=episode_seeds[i])
        steps = 0
        done = False
        while not done:
            action = agent.act(state, explore=False)
            result = environment.step(action)
            state = result.observation
            steps += 1
            done = result.done
        lengths[i] = steps
    return lengths


__all__ = ["evaluate_agent"]
