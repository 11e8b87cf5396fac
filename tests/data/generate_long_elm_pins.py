"""Regenerate ``long_elm_pins.json`` — 600-episode ELM / OS-ELM-L2 digests.

The 6-episode pins in ``pinned_curves.json`` end before an ELM agent has
retrained often enough for a 1-ULP difference in its bootstrap targets to
change an episode.  These pins train the benchmark's N=64, 600-episode
CartPole trials of grids 606 and 707 (``e2ebench/common.py``'s
``grid_spec``), the two trials in which a flat ``(n * A, N) @ beta``
bootstrap drifts from the serial one, together with the OS-ELM-L2 trials of
the same seeds.  ``tests/test_long_elm_pins.py`` replays them serially and
through one batched lock-step batch.

The fixture also pins each trial's per-operation ``breakdown.counts`` and
those of short serial runs of every ELM-family design, the FPGA one
included (with its modelled-time counts): Figure 5's modelled times are
these counts times the platform latencies.

Only rerun this script if training behaviour changes on purpose, and then
at the commit *before* the change is made:

    PYTHONPATH=src python tests/data/generate_long_elm_pins.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.api.spec import Budget, ExperimentSpec

#: (grid seed, design, trial index) of every pinned trial.
CASES = [
    (606, "ELM", 0),
    (606, "OS-ELM-L2", 0),
    (707, "ELM", 3),
    (707, "OS-ELM-L2", 3),
]

#: (design, n_hidden, max_episodes, seed) of the short serial count pins.
COUNT_CASES = [
    ("ELM", 16, 30, 123),
    ("OS-ELM", 16, 30, 123),
    ("OS-ELM-L2", 16, 30, 123),
    ("OS-ELM-Lipschitz", 16, 30, 123),
    ("OS-ELM-L2-Lipschitz", 16, 30, 123),
    ("FPGA", 8, 8, 123),
]

FIXTURE = Path(__file__).with_name("long_elm_pins.json")


def pinned_tasks():
    """The sweep task of each case, in ``CASES`` order."""
    tasks = []
    for grid, design, trial in CASES:
        spec = ExperimentSpec(name="e2ebench", designs=(design,), hidden_sizes=(64,),
                              env_ids=("CartPole-v0",), n_seeds=trial + 1, seed=grid,
                              budget=Budget(max_episodes=600))
        tasks.append(spec.tasks()[trial])
    return tasks


def curve_digest(result) -> str:
    """SHA-256 of everything a trial computes (its curve, bit-exact), not timings."""
    curve = [(r.episode, r.steps, float(r.shaped_return).hex(),
              float(r.moving_average).hex()) for r in result.curve.records]
    payload = json.dumps([result.design, result.n_hidden, result.seed, result.solved,
                          result.episodes, result.episodes_to_solve,
                          result.weight_resets, curve], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def train_count_case(design: str, n_hidden: int, max_episodes: int, seed: int):
    """Train one count case serially; returns ``(result, agent)``."""
    from repro.core.designs import make_design
    from repro.training import Trainer, TrainingConfig

    agent = make_design(design, n_hidden=n_hidden, seed=seed)
    result = Trainer().fit(agent, config=TrainingConfig(max_episodes=max_episodes, seed=seed),
                           n_hidden=n_hidden)
    return result, agent


def modelled_counts(agent) -> dict:
    """The FPGA model's modelled-time counts (empty for software designs)."""
    modelled = getattr(agent.model, "modelled_time", None)
    return dict(modelled.counts) if modelled is not None else {}


def main() -> None:
    from repro.training import Trainer

    pins = []
    for (grid, design, trial), task in zip(CASES, pinned_tasks()):
        result = Trainer().fit(task.make_agent(), config=task.training,
                               n_hidden=task.n_hidden)
        pins.append({"grid": grid, "design": design, "trial": trial, "seed": task.seed,
                     "steps": sum(r.steps for r in result.curve.records),
                     "digest": curve_digest(result),
                     "counts": dict(result.breakdown.counts)})
    counts = []
    for case in COUNT_CASES:
        result, agent = train_count_case(*case)
        counts.append({"case": list(case), "counts": dict(result.breakdown.counts),
                       "modelled_counts": modelled_counts(agent)})
    FIXTURE.write_text(json.dumps({"pins": pins, "counts": counts}, indent=1) + "\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE} ({len(pins)} pins, {len(counts)} count pins)")


if __name__ == "__main__":
    main()
