"""Experiment E2: training curves of the six software designs (Figure 4).

For each (design, hidden-layer size) pair the experiment trains an agent on
CartPole-v0 with the paper's protocol and records the per-episode number of
steps the pole stayed up plus its 100-episode moving average — the two
series plotted as the light and dark lines of Figure 4.

The experiment itself is the registered ``figure4`` spec: run it with
``repro.api.run(get_spec("figure4", scale="ci"|"paper"))`` or
``python -m repro run figure4``, and ``report.to_training_curve_result()``
collects the curves into :class:`TrainingCurveResult`.  This module only
holds that container and the Section 4.3 stability classification; it
never trains anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.experiments.reporting import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.training.records import TrainingResult


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
