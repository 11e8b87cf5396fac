"""600-episode ELM / OS-ELM-L2 pins, serial and batched lock-step.

The fixture and the trials come from ``tests/data/generate_long_elm_pins.py``.
These trials are long enough to show a bootstrap computed with a different
BLAS kernel (a flat ``(n * A, N) @ beta`` product in place of the stacked
per-transition one), which the 6-episode pins cannot.  Each trial's
per-operation ``breakdown.counts`` is pinned as well, since Figure 5's
modelled times are computed from them.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.training import Trainer

_DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("generate_long_elm_pins",
                                               _DATA / "generate_long_elm_pins.py")
pins_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pins_module)

FIXTURE = json.loads((_DATA / "long_elm_pins.json").read_text(encoding="utf-8"))
PINS = FIXTURE["pins"]
TASKS = pins_module.pinned_tasks()
IDS = [f"{pin['design']}/{pin['seed']}" for pin in PINS]


def _assert_pinned(result, pin):
    assert result.seed == pin["seed"]
    assert sum(r.steps for r in result.curve.records) == pin["steps"]
    assert pins_module.curve_digest(result) == pin["digest"]
    assert result.breakdown.counts == pin["counts"]


def test_fixture_covers_the_cases():
    assert [(p["grid"], p["design"], p["trial"]) for p in PINS] == pins_module.CASES


@pytest.mark.parametrize("index", range(len(PINS)), ids=IDS)
def test_serial_replays_long_pin(index):
    task = TASKS[index]
    result = Trainer().fit(task.make_agent(), config=task.training, n_hidden=task.n_hidden)
    _assert_pinned(result, PINS[index])


def test_batched_lockstep_replays_long_pins():
    agents = [task.make_agent() for task in TASKS]
    results = Trainer().fit_lockstep(agents, [task.training for task in TASKS],
                                     strategy="batched")
    for result, pin in zip(results, PINS):
        _assert_pinned(result, pin)


@pytest.mark.parametrize("pin", FIXTURE["counts"], ids=[c["case"][0] for c in FIXTURE["counts"]])
def test_breakdown_counts_match_pin(pin):
    result, agent = pins_module.train_count_case(*pin["case"])
    assert result.breakdown.counts == pin["counts"]
    assert pins_module.modelled_counts(agent) == pin["modelled_counts"]
