#!/usr/bin/env python
"""Quickstart: train an OS-ELM Q-Network on CartPole-v0 and inspect the result.

This is the smallest end-to-end use of the library: build one of the paper's
designs with :func:`repro.make_design`, train it with ``repro.Trainer().fit``
and look at the training curve, the per-operation time breakdown and the
greedy-policy evaluation.

Run:
    python examples/quickstart.py [--design OS-ELM-L2] [--episodes 400] [--hidden 64]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import DESIGN_NAMES, Trainer, TrainingConfig, evaluate_agent, make_design
from repro.experiments.reporting import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--design", default="OS-ELM-L2", choices=DESIGN_NAMES,
                        help="which of the paper's seven designs to train")
    parser.add_argument("--hidden", type=int, default=64,
                        help="hidden-layer size N-tilde (the paper sweeps 32-192)")
    parser.add_argument("--episodes", type=int, default=400,
                        help="episode budget (the paper allows up to 50,000)")
    parser.add_argument("--seed", type=int, default=6)
    args = parser.parse_args()

    print(f"Training design {args.design!r} with {args.hidden} hidden units "
          f"for up to {args.episodes} episodes on CartPole-v0...")
    agent = make_design(args.design, n_hidden=args.hidden, seed=args.seed)
    config = TrainingConfig(
        max_episodes=args.episodes,
        solved_threshold=100.0,       # relaxed criterion for a quick demo
        solved_window=30,
        seed=args.seed,
    )
    result = Trainer().fit(agent, config=config)

    print()
    print(f"solved: {result.solved}   episodes run: {result.episodes}   "
          f"weight resets: {result.weight_resets}")
    print(f"final 100-episode average steps: {result.curve.final_average():.1f}")
    print(f"wall-clock training time: {result.wall_time_seconds:.1f}s")

    rows = [{"operation": op,
             "count": result.breakdown.counts.get(op, 0),
             "seconds": sec,
             "fraction": result.breakdown.fraction(op)}
            for op, sec in sorted(result.breakdown.seconds.items(), key=lambda kv: -kv[1])]
    print()
    print(format_table(rows, float_format=".4f",
                       title="Measured per-operation breakdown (host wall clock)"))

    greedy = evaluate_agent(agent, n_episodes=10, config=TrainingConfig(seed=args.seed + 1))
    print()
    print(f"greedy evaluation over 10 episodes: mean {np.mean(greedy):.1f} steps, "
          f"best {np.max(greedy)} steps")


if __name__ == "__main__":
    main()
