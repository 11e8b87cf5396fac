"""Definitions shared by every workload: grids, the serial reference, digests.

Nothing here imports numpy or ``repro`` at module level, so ``run.py`` can
pin the BLAS thread count before either is loaded.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"

#: The three designs every training workload runs, at the paper's N=64.
DESIGNS = ("OS-ELM-L2-Lipschitz", "OS-ELM-L2", "ELM")
N_HIDDEN = 64
ENV_ID = "CartPole-v0"
#: 600 episodes: every OS-ELM trial crosses the 300-episode reset rule.
MAX_EPISODES = 600

#: Base seeds of the grids a run may train.  ``--seed`` picks where in this
#: pool a run starts; every trial of every pool grid has a stored serial
#: reference (``reference.json``, written by ``make_reference.py``).
POOL = tuple(101 * (k + 1) for k in range(12))
#: Largest ``n_seeds`` any workload uses; the reference covers trials below it.
MAX_SEEDS_PER_DESIGN = 4

TRAINING_WORKLOADS = {
    # workload: (backend, seeds per design per run call)
    "train_serial": ("serial", 1),
    "sweep_vectorized": ("auto", 4),
    "sweep_distributed": ("distributed", 4),
}
WORKLOADS = tuple(TRAINING_WORKLOADS) + ("serve",)

#: Local workers of ``sweep_distributed`` (one per core of the reference box).
DISTRIBUTED_WORKERS = 2
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def grid_spec(base_seed: int, n_seeds: int):
    """The experiment spec one run call trains."""
    from repro.api.spec import Budget, ExperimentSpec

    return ExperimentSpec(name="e2ebench", designs=DESIGNS, hidden_sizes=(N_HIDDEN,),
                          env_ids=(ENV_ID,), n_seeds=n_seeds, seed=base_seed,
                          budget=Budget(max_episodes=MAX_EPISODES))


def pool_seed(seed: int, call: int) -> int:
    """Base seed of the ``call``-th run call of a run started with ``seed``."""
    return POOL[(seed + call) % len(POOL)]


def trial_id(design: str, seed: int) -> str:
    return f"{design}/{seed}"


def trial_digest(result) -> str:
    """Digest of everything a trial computes (its curve), excluding timings."""
    curve = [(r.episode, r.steps, float(r.shaped_return).hex(),
              float(r.moving_average).hex()) for r in result.curve.records]
    payload = json.dumps([result.design, result.n_hidden, result.seed, result.solved,
                          result.episodes, result.episodes_to_solve,
                          result.weight_resets, curve], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def trial_steps(result) -> int:
    return int(sum(record.steps for record in result.curve.records))


def load_reference() -> Dict[str, Dict[str, object]]:
    with REFERENCE_PATH.open() as handle:
        return json.load(handle)["trials"]


def check_trials(report, reference: Dict[str, Dict[str, object]]) -> List[str]:
    """One message per trial that is missing or differs from the reference."""
    problems = []
    if len(report.trials) != report.spec.n_trials:
        problems.append(f"{report.spec.n_trials - len(report.trials)} trials missing")
    for record in report.trials:
        key = trial_id(record.result.design, record.result.seed)
        expected = reference.get(key)
        if expected is None:
            problems.append(f"{key}: no serial reference")
        elif (trial_digest(record.result) != expected["digest"]
              or trial_steps(record.result) != expected["steps"]):
            problems.append(f"{key}: curve differs from the serial reference")
    return problems


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_summary(values: Iterable[float]) -> Dict[str, float]:
    """Median, and the highest of p90/p99/p99.9 with >= 10 samples beyond it."""
    sample = list(values)
    summary: Dict[str, float] = {"n": len(sample), "p50": percentile(sample, 50)}
    for q in (99.9, 99.0, 90.0):
        if len(sample) * (100.0 - q) / 100.0 >= 10:
            summary["tail_q"] = q
            summary["tail"] = percentile(sample, q)
            break
    return summary
