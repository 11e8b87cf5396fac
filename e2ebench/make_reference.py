"""Regenerate ``reference.json``: every pool trial trained on the serial backend.

Run from the repository root after a change that is meant to alter what
training computes (the training workloads fail on any curve that differs)::

    OPENBLAS_NUM_THREADS=1 python3 e2ebench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import common  # noqa: E402  (after the BLAS pin)

sys.path.insert(0, str(common.SRC))


def main() -> int:
    from repro.api import engine
    from repro.utils.logging import set_global_level

    set_global_level("warning")
    trials = {}
    for base_seed in common.POOL:
        spec = common.grid_spec(base_seed, common.MAX_SEEDS_PER_DESIGN)
        report = engine.run(spec, backend="serial")
        for record in report.trials:
            result = record.result
            trials[common.trial_id(result.design, result.seed)] = {
                "digest": common.trial_digest(result),
                "steps": common.trial_steps(result),
                "episodes": result.episodes,
            }
        print(f"base seed {base_seed}: {len(report.trials)} trials", file=sys.stderr)
    document = {
        "note": "serial-backend curve digests and env-step counts of every pool trial",
        "designs": list(common.DESIGNS), "n_hidden": common.N_HIDDEN,
        "max_episodes": common.MAX_EPISODES, "pool": list(common.POOL),
        "trials": trials,
    }
    common.REFERENCE_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
