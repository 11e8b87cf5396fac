"""Multi-seed design sweep through the parallel rollout engine.

Replaces the hand-rolled pattern of looping ``Trainer().fit`` over designs and
trials: declare the grid once as a ``SweepSpec``, let ``SweepRunner`` derive
a reproducible, non-overlapping seed for every (design, env, trial) cell,
execute compatible trials in lock-step batches, and aggregate the streamed
results into the Figure 4-style cross-seed statistics.

Run with::

    PYTHONPATH=src python examples/parallel_sweep.py
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.parallel import SweepRunner, SweepSpec
from repro.training import TrainingConfig


def main() -> None:
    # 3 designs x 4 seeds on CartPole-v0 with a minutes-scale budget.  The
    # paper-scale protocol is the same spec with the 50,000-episode config.
    spec = SweepSpec(
        designs=("ELM", "OS-ELM-L2", "OS-ELM-L2-Lipschitz"),
        env_ids=("CartPole-v0",),
        n_seeds=4,
        n_hidden=32,
        training=TrainingConfig(max_episodes=250, solved_threshold=60.0,
                                solved_window=20),
        root_seed=1234,
    )
    runner = SweepRunner(spec, backend="auto")

    def on_result(task, result):
        status = (f"solved @ {result.episodes_to_solve}" if result.solved
                  else f"not solved in {result.episodes}")
        print(f"  [{task.design:>20s} trial {task.trial}] {status} "
              f"(final avg {result.curve.final_average():.1f} steps)")

    print(f"running {len(spec.tasks())} trials on backend={runner.backend} ...")
    sweep = runner.run(callback=on_result)

    print()
    print(sweep.render())
    print(f"\ntotal env steps: {sweep.total_env_steps}, "
          f"wall time: {sweep.wall_time_seconds:.2f}s")

    # Cross-seed mean curve of the strongest design (the Figure 4 averaging).
    curve = sweep.aggregate_curve("OS-ELM-L2-Lipschitz", "CartPole-v0")
    tail = slice(max(0, curve["episodes"].size - 5), None)
    print("\nOS-ELM-L2-Lipschitz mean curve, last episodes:")
    for episode, mean, std in zip(curve["episodes"][tail],
                                  curve["mean_steps"][tail],
                                  curve["std_steps"][tail]):
        print(f"  episode {episode:4d}: {mean:6.1f} +- {std:5.1f} steps")


if __name__ == "__main__":
    main()
