#!/usr/bin/env python
"""Figure 4 reproduction: training curves of the software designs.

Runs the training-curve experiment for a configurable set of designs and
hidden-layer sizes, prints the per-design outcome table and writes the raw
per-episode series (episode, steps, moving average) to CSV files so they can
be plotted exactly like the paper's Figure 4.

Run (quick demo, two designs, one hidden size):
    python examples/figure4_training_curves.py

Run something closer to the paper (expect hours):
    python examples/figure4_training_curves.py --designs ELM OS-ELM OS-ELM-L2 \
        OS-ELM-Lipschitz OS-ELM-L2-Lipschitz DQN --hidden 32 64 128 192 \
        --episodes 50000 --threshold 195
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.api import run as run_experiment
from repro.core.designs import SOFTWARE_DESIGNS
from repro.experiments.reporting import rows_to_csv
from repro.experiments.training_curve import TrainingCurveExperiment, stability_classification
from repro.training import TrainingConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--designs", nargs="+", default=["OS-ELM", "OS-ELM-L2", "DQN"],
                        choices=SOFTWARE_DESIGNS)
    parser.add_argument("--hidden", nargs="+", type=int, default=[32])
    parser.add_argument("--episodes", type=int, default=300)
    parser.add_argument("--threshold", type=float, default=120.0,
                        help="solved criterion on the 100-episode moving average "
                             "(the paper / Gym convention is 195)")
    parser.add_argument("--window", type=int, default=50)
    parser.add_argument("--seed", type=int, default=6)
    parser.add_argument("--output-dir", type=Path, default=Path("results/figure4"))
    args = parser.parse_args()

    experiment = TrainingCurveExperiment(
        designs=tuple(args.designs),
        hidden_sizes=tuple(args.hidden),
        training=TrainingConfig(max_episodes=args.episodes,
                                solved_threshold=args.threshold,
                                solved_window=args.window),
        seed=args.seed,
    )
    collected = run_experiment(experiment.to_spec()).to_training_curve_result()

    print()
    print(collected.render())
    print()
    for (design, n_hidden), result in sorted(collected.results.items()):
        label = stability_classification(result)
        print(f"  {design:<22} N={n_hidden:<4} -> {label}")

    args.output_dir.mkdir(parents=True, exist_ok=True)
    for (design, n_hidden), result in collected.results.items():
        series = result.curve.as_dict()
        rows = [
            {"episode": int(series["episodes"][i]),
             "steps": float(series["steps"][i]),
             "moving_average": float(series["moving_average"][i])}
            for i in range(len(result.curve))
        ]
        path = args.output_dir / f"curve_{design}_{n_hidden}.csv"
        path.write_text(rows_to_csv(rows))
        print(f"wrote {path} ({len(rows)} episodes)")


if __name__ == "__main__":
    main()
