"""Tests of the benchmark itself: its contract and that it leaves nothing running.

Run from the repository root (they drive real runs, about a minute)::

    python3 -m pytest e2ebench/test_e2ebench.py -q

Every run gets a unique token in its environment, which each process it
starts inherits; after the run ends no process may still carry the token.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import run  # noqa: E402

TOKEN_VARIABLE = "E2EBENCH_TEST_TOKEN"


def _processes_with(token: str, parent: int = 0):
    """``(pid, command line)`` of live processes whose environment has ``token``
    (only children of ``parent``, when given)."""
    found = []
    needle = f"{TOKEN_VARIABLE}={token}".encode()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            if needle not in (entry / "environ").read_bytes():
                continue
            state, ppid = (entry / "stat").read_text().rsplit(")", 1)[1].split()[:2]
            if state == "Z" or (parent and int(ppid) != parent):
                continue
            command = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue
        found.append((int(entry.name), command))
    return found


def _start(args, token: str, code: str = ""):
    env = dict(os.environ, **{TOKEN_VARIABLE: token})
    if code:
        command = [sys.executable, "-c", code] + args
    else:
        command = [sys.executable, str(HERE / "run.py")] + args
    return subprocess.Popen(command, cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _wait_for(token: str, marker: str, parent: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if any(marker in command for _, command in _processes_with(token, parent)):
            return
        time.sleep(0.1)
    raise AssertionError(f"no process matching {marker!r} appeared within {timeout}s")


def _assert_nothing_left(token: str) -> None:
    deadline = time.monotonic() + 10.0
    left = _processes_with(token)
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        left = _processes_with(token)
    assert not left, f"processes left running: {left}"
    assert not (ROOT / ".e2ebench_tmp").exists() or not any(
        (ROOT / ".e2ebench_tmp").iterdir())


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(common.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_normal_run_prints_every_metric_and_leaves_nothing():
    token = uuid.uuid4().hex
    child = _start(["--workload", "sweep_distributed", "--seed", "3", "--seconds", "1",
                    "--trace", "0"], token)
    out, err = child.communicate(timeout=170)
    assert child.returncode == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    _assert_nothing_left(token)


@pytest.mark.parametrize("workload,marker,delay,signum", [
    # The daemon appears with the first of three set-ups; 8 s later the
    # closed loop is running.  Run-call workers are the benchmark's own
    # children (the set-up probe's workers are its grandchildren).
    ("serve", "repro serve", 8.0, signal.SIGTERM),
    ("sweep_distributed", "multiprocessing.spawn", 2.0, signal.SIGINT),
])
def test_signal_midway_stops_everything(workload, marker, delay, signum):
    token = uuid.uuid4().hex
    child = _start(["--workload", workload, "--seed", "1", "--seconds", "30",
                    "--trace", "0"], token)
    try:
        _wait_for(token, marker, parent=child.pid)
        time.sleep(delay)
        assert child.poll() is None
        child.send_signal(signum)
        out, err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    assert child.returncode not in (0, None)
    assert '"metrics"' not in out
    assert "stopped by" in err
    _assert_nothing_left(token)


FAIL_IN_OPEN_LOOP = """
import sys
sys.path.insert(0, "e2ebench")
import serve_workload
def broken(*args, **kwargs):
    raise RuntimeError("injected failure in the open loop")
serve_workload.open_loop = broken
import run
sys.exit(run.main(sys.argv[1:]))
"""


def test_exception_midway_through_serve_stops_everything():
    token = uuid.uuid4().hex
    child = _start(["--workload", "serve", "--seed", "2", "--seconds", "2",
                    "--trace", "0"], token, code=FAIL_IN_OPEN_LOOP)
    out, err = child.communicate(timeout=170)
    assert child.returncode == 1
    assert "injected failure" in err
    assert '"metrics"' not in out
    _assert_nothing_left(token)


STRAY_CHILD = """
import subprocess, sys
sys.path.insert(0, "e2ebench")
import training_workloads
def leaky_warm_up(workload):
    subprocess.Popen(["sleep", "120"])
training_workloads.warm_up = leaky_warm_up
import run
sys.exit(run.main(sys.argv[1:]))
"""


def test_a_process_left_running_fails_the_run_loudly():
    token = uuid.uuid4().hex
    child = _start(["--workload", "train_serial", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], token, code=STRAY_CHILD)
    out, err = child.communicate(timeout=170)
    assert child.returncode == 3
    assert "still alive" in err and "sleep 120" in err
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    _assert_nothing_left(token)


def test_missing_program_fails_without_a_result(tmp_path):
    (tmp_path / "e2ebench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "e2ebench" / path.name).write_bytes(path.read_bytes())
    child = subprocess.run([sys.executable, "e2ebench/run.py", "--workload", "serve",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert '"metrics"' not in child.stdout
