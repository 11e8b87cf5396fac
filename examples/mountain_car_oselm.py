#!/usr/bin/env python
"""Future-work scenario (Section 5): OS-ELM Q-Network on another control task.

The paper evaluates only CartPole-v0 and lists "some other reinforcement
tasks" as future work.  This example runs the same OS-ELM Q-Network agent on
MountainCar-v0 (and optionally Acrobot-v1) using the identical API — the only
changes are the environment dimensions and a task-appropriate reward shaping
(MountainCar's raw -1-per-step reward already lies inside the clipping range,
so shaping is disabled).

Run:
    python examples/mountain_car_oselm.py [--env MountainCar-v0] [--episodes 300]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core.agents import AgentConfig, OSELMQAgent
from repro.core.regularization import RegularizationConfig
from repro.envs import make as make_env
from repro.training import Trainer, TrainingConfig
from repro.utils.metrics import RunningStats


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--env", default="MountainCar-v0",
                        choices=["MountainCar-v0", "Acrobot-v1"])
    parser.add_argument("--episodes", type=int, default=300)
    parser.add_argument("--hidden", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    env = make_env(args.env, seed=args.seed)
    config = AgentConfig(
        n_states=env.n_observations,
        n_actions=env.n_actions,
        n_hidden=args.hidden,
        gamma=0.99,
        regularization=RegularizationConfig.l2(1.0),
        seed=args.seed,
    )
    agent = OSELMQAgent(config)
    agent.name = f"OS-ELM-L2 ({args.env})"

    training = TrainingConfig(
        env_id=args.env,
        max_episodes=args.episodes,
        reward_shaping=False,               # the native reward is already in [-1, 0]
        solved_threshold=90.0 if args.env == "Acrobot-v1" else 110.0,
        solved_window=50,
        seed=args.seed,
    )
    print(f"Training {agent.name} with {args.hidden} hidden units "
          f"for up to {args.episodes} episodes...")
    result = Trainer().fit(agent, env, config=training)

    lengths = RunningStats()
    lengths.extend(record.steps for record in result.curve.records)
    print()
    print(f"episodes run:        {result.episodes}")
    print(f"episode length:      mean {lengths.mean:.1f}, best {lengths.min:.0f} "
          f"(shorter is better on {args.env})")
    print(f"seq_train updates:   {result.breakdown.counts.get('seq_train', 0)}")
    print(f"weight resets:       {result.weight_resets}")
    best_window = np.min([np.mean(result.curve.steps[max(0, i - 25):i + 1])
                          for i in range(len(result.curve))])
    print(f"best 25-episode average length: {best_window:.1f}")
    print()
    print("Note: with the paper's constant exploration and no annealing, classic-control")
    print("tasks with sparse rewards (MountainCar) generally need longer budgets or an")
    print("exploration schedule (see repro.rl.schedule) to reach the goal reliably;")
    print("this script demonstrates the API path rather than a tuned solution.")


if __name__ == "__main__":
    main()
