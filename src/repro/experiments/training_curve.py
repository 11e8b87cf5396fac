"""Experiment E2: training curves of the six software designs (Figure 4).

For each (design, hidden-layer size) pair the experiment trains an agent on
CartPole-v0 with the paper's protocol and records the per-episode number of
steps the pole stayed up plus its 100-episode moving average — the two
series plotted as the light and dark lines of Figure 4.

The paper runs each design to 50,000 episodes (or success) on the board; the
harness exposes the same protocol but defaults to CI-scale budgets so the
benchmark suite terminates quickly.  Use ``paper_scale()`` to get the
full-scale configuration.

:class:`TrainingCurveExperiment` is a view over the unified experiment API:
``ci_scale()``/``paper_scale()`` resolve the registered ``figure4`` spec,
and ``repro.api.run(experiment.to_spec())`` runs it through the one sweep
engine (``report.to_training_curve_result()`` gives the curves back).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.designs import SOFTWARE_DESIGNS, make_design
from repro.experiments.reporting import format_table
from repro.training.records import TrainingResult
from repro.training import Trainer, TrainingConfig
from repro.utils.logging import get_logger
from repro.utils.seeding import stable_hash

_LOGGER = get_logger("repro.experiments.training_curve")

#: Hidden-layer sizes shown in Figure 4.
FIGURE4_HIDDEN_SIZES: Tuple[int, ...] = (32, 64, 128, 192)


@dataclass
class TrainingCurveResult:
    """All runs of one training-curve experiment, indexed by (design, n_hidden)."""

    results: Dict[Tuple[str, int], TrainingResult] = field(default_factory=dict)

    def add(self, result: TrainingResult) -> None:
        self.results[(result.design, result.n_hidden)] = result

    def get(self, design: str, n_hidden: int) -> TrainingResult:
        return self.results[(design, n_hidden)]

    def designs(self) -> List[str]:
        return sorted({key[0] for key in self.results})

    def hidden_sizes(self) -> List[int]:
        return sorted({key[1] for key in self.results})

    def curve_series(self, design: str, n_hidden: int) -> Dict[str, np.ndarray]:
        """The (episodes, steps, moving_average) series for one panel line of Figure 4."""
        return self.get(design, n_hidden).curve.as_dict()

    def summary_rows(self) -> List[Dict[str, object]]:
        rows = []
        for (design, n_hidden), result in sorted(self.results.items(),
                                                 key=lambda kv: (kv[0][1], kv[0][0])):
            rows.append({
                "design": design,
                "n_hidden": n_hidden,
                "solved": result.solved,
                "episodes": result.episodes,
                "episodes_to_solve": result.episodes_to_solve,
                "final_avg_steps": round(result.curve.final_average(), 1),
                "weight_resets": result.weight_resets,
            })
        return rows

    def render(self) -> str:
        return format_table(self.summary_rows(),
                            title="Figure 4 summary: training outcome per design / hidden size")


@dataclass(frozen=True)
class TrainingCurveExperiment:
    """Configuration + runner for the Figure 4 experiment.

    Parameters
    ----------
    designs:
        Subset of the software designs to run (all six by default).
    hidden_sizes:
        Hidden-layer sizes to sweep (Figure 4 uses 32–192).
    training:
        Protocol configuration; the default is a CI-scale budget.
    seed:
        Base seed; each (design, hidden) run derives its own seed from it.
    """

    designs: Sequence[str] = SOFTWARE_DESIGNS
    hidden_sizes: Sequence[int] = FIGURE4_HIDDEN_SIZES
    training: TrainingConfig = field(default_factory=lambda: TrainingConfig(max_episodes=300))
    seed: int = 42
    gamma: float = 0.99

    @staticmethod
    def paper_scale() -> "TrainingCurveExperiment":
        """The full protocol of Section 4.3 (50,000-episode cutoff, 195/100 criterion).

        Routed through the registered ``figure4`` paper-scale spec, so the
        two scales differ only in declarative budget/grid fields.
        """
        from repro.api.registry import get_spec

        return TrainingCurveExperiment.from_spec(get_spec("figure4", scale="paper"))

    @staticmethod
    def ci_scale(designs: Sequence[str] = ("OS-ELM-L2-Lipschitz", "DQN"),
                 hidden_sizes: Sequence[int] = (32,),
                 max_episodes: int = 60) -> "TrainingCurveExperiment":
        """A minutes-scale configuration used by the benchmark suite.

        The registered ``figure4`` CI spec with the grid/budget overrides
        applied — the same code path as ``paper_scale()``.
        """
        from repro.api.registry import get_spec

        spec = get_spec("figure4", scale="ci").with_grid(
            designs=tuple(designs), hidden_sizes=tuple(hidden_sizes),
        ).with_budget(max_episodes=max_episodes)
        return TrainingCurveExperiment.from_spec(spec)

    # ------------------------------------------------------------------ spec bridge
    @staticmethod
    def from_spec(spec) -> "TrainingCurveExperiment":
        """Build the legacy harness view of a training-curve spec."""
        return TrainingCurveExperiment(
            designs=spec.designs,
            hidden_sizes=spec.hidden_sizes,
            training=spec.budget.training_config(env_id=spec.env_ids[0]),
            seed=spec.seed,
            gamma=spec.gamma,
        )

    def to_spec(self, name: str = "training-curve"):
        """This configuration as a declarative :class:`~repro.api.ExperimentSpec`.

        ``seed_stride``/``seed_mod`` are the constants ``run_single`` has
        always used, so the spec's trials carry identical seeds.
        """
        from repro.api.spec import Budget, ExperimentSpec

        return ExperimentSpec(
            name=name,
            kind="training_curve",
            designs=tuple(self.designs),
            hidden_sizes=tuple(int(h) for h in self.hidden_sizes),
            env_ids=(self.training.env_id,),
            n_seeds=1,
            seed=self.seed,
            gamma=self.gamma,
            budget=Budget.from_training_config(self.training),
            seed_stride=17,
            seed_mod=997,
        )

    # ------------------------------------------------------------------ execution
    def run_single(self, design: str, n_hidden: int, *, trial: int = 0) -> TrainingResult:
        """Train one (design, hidden-size) combination."""
        seed = self.seed + 1000 * trial + 17 * n_hidden + stable_hash(design) % 997
        agent = make_design(design, n_hidden=n_hidden, gamma=self.gamma, seed=seed)
        config = TrainingConfig(
            env_id=self.training.env_id,
            max_episodes=self.training.max_episodes,
            max_steps_per_episode=self.training.max_steps_per_episode,
            solved_threshold=self.training.solved_threshold,
            solved_window=self.training.solved_window,
            reward_shaping=self.training.reward_shaping,
            success_steps=self.training.success_steps,
            stop_when_solved=self.training.stop_when_solved,
            record_lipschitz=self.training.record_lipschitz,
            seed=seed,
        )
        _LOGGER.info("training", design=design, n_hidden=n_hidden,
                     max_episodes=config.max_episodes)
        return Trainer().fit(agent, config=config, n_hidden=n_hidden)


def stability_classification(result: TrainingResult, *, collapse_window: int = 50,
                             collapse_threshold: float = 0.5) -> str:
    """Classify a training curve the way Section 4.3 discusses them.

    Returns one of:

    * ``"solved"`` — reached the solved criterion;
    * ``"collapsed"`` — the late moving average fell below ``collapse_threshold``
      times the peak moving average (the paper's description of plain OS-ELM,
      whose performance degrades as outliers corrupt beta);
    * ``"not_learning"`` — never rose meaningfully above the initial performance.
    """
    if result.solved:
        return "solved"
    averages = result.curve.moving_average
    if averages.size == 0:
        return "not_learning"
    peak = float(averages.max())
    if peak <= 15.0:
        return "not_learning"
    tail = averages[-collapse_window:]
    if tail.size and float(tail.mean()) < collapse_threshold * peak:
        return "collapsed"
    return "not_learning"
