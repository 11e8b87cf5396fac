"""Regenerate ``pinned_curves.json`` — the legacy-trainer ground truth.

The checked-in JSON was produced at the commit *before* the unified
``repro.training.Trainer`` landed, by running the original hand-rolled
serial and lock-step loops on small fixed-seed budgets for every
registered design.  The script now drives the same configurations through
``Trainer().fit`` and ``Trainer().fit_lockstep(strategy="batched")``, which
replay those loops bit for bit.  ``tests/test_training_equivalence.py``
replays the same configurations through the new Trainer (serial, generic
lock-step and batched lock-step) and asserts the curves are byte-identical.

Only rerun this script if the *protocol itself* changes intentionally —
regenerating it after a trainer change would hide exactly the regressions
the fixture exists to catch.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.designs import DESIGN_NAMES, make_design
from repro.training import Trainer, TrainingConfig

#: (design, n_hidden, max_episodes, seed) per serial pin.  Budgets are small
#: but all reach the post-initial-training phase (buffer fills after
#: ``n_hidden`` steps, and a fresh CartPole agent survives ~9-10 steps/episode).
SERIAL_CASES = [
    ("ELM", 16, 6, 123),
    ("OS-ELM", 16, 6, 123),
    ("OS-ELM-L2", 16, 6, 123),
    ("OS-ELM-Lipschitz", 16, 6, 123),
    ("OS-ELM-L2-Lipschitz", 16, 6, 123),
    ("DQN", 16, 4, 123),
    ("FPGA", 8, 3, 123),
]

#: One mixed lock-step batch (shared layer sizes, per-trial seeds/designs).
LOCKSTEP_BATCH = [
    ("ELM", 16, 6, 11),
    ("OS-ELM-L2", 16, 6, 22),
    ("OS-ELM-L2-Lipschitz", 16, 6, 33),
    ("OS-ELM-L2", 16, 6, 44),
]


def curve_payload(result) -> dict:
    """Exact (bit-preserving) serialization of one training curve."""
    return {
        "design": result.design,
        "solved": result.solved,
        "episodes": result.episodes,
        "episodes_to_solve": result.episodes_to_solve,
        "weight_resets": result.weight_resets,
        "steps": [r.steps for r in result.curve.records],
        "shaped_return": [r.shaped_return.hex() for r in result.curve.records],
        "moving_average": [r.moving_average.hex() for r in result.curve.records],
    }


def main() -> None:
    serial = []
    for design, n_hidden, max_episodes, seed in SERIAL_CASES:
        agent = make_design(design, n_hidden=n_hidden, seed=seed)
        config = TrainingConfig(max_episodes=max_episodes, seed=seed)
        result = Trainer().fit(agent, config=config, n_hidden=n_hidden)
        serial.append({"design": design, "n_hidden": n_hidden,
                       "max_episodes": max_episodes, "seed": seed,
                       "result": curve_payload(result)})

    agents = [make_design(d, n_hidden=h, seed=s) for d, h, _, s in LOCKSTEP_BATCH]
    configs = [TrainingConfig(max_episodes=e, seed=s)
               for _, _, e, s in LOCKSTEP_BATCH]
    lockstep = [curve_payload(r) for r in
                Trainer().fit_lockstep(agents, configs, strategy="batched")]

    payload = {
        "note": "generated by the pre-Trainer legacy loops; see module docstring",
        "serial": serial,
        "lockstep_batch": {
            "cases": [list(case) for case in LOCKSTEP_BATCH],
            "results": lockstep,
        },
    }
    out = Path(__file__).with_name("pinned_curves.json")
    out.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    print(f"wrote {out} ({len(serial)} serial pins, "
          f"{len(lockstep)} lock-step pins)")


if __name__ == "__main__":
    main()


# Keep every design name covered: a new design added to the registry should
# fail loudly here rather than silently going unpinned.
assert {case[0] for case in SERIAL_CASES} == set(DESIGN_NAMES)
