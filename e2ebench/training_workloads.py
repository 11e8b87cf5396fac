"""The three training workloads: one ``engine.run`` call per grid, repeated.

A run trains a sequence of grids (base seeds taken from the reference pool,
starting at ``--seed``), one ``repro.api.engine.run`` call each, until its
time is used.  Every call is checked against the serial reference: each
trial's curve digest and env-step count must match exactly.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
from typing import Dict, List

import common

class Pass:
    """What one measured sequence of run calls produced."""

    def __init__(self) -> None:
        self.calls: List[Dict[str, float]] = []
        self.trials = 0
        self.failures: List[str] = []
        self.results = []          # TrainingResult of every trial, in call order

    @property
    def steps(self) -> int:
        return int(sum(call["steps"] for call in self.calls))

    @property
    def wall(self) -> float:
        return sum(call["wall"] for call in self.calls)


def time_setup(workload: str, seed: int, life) -> float:
    """Median time fresh-process set-ups take to be ready (see ``setup_probe.py``)."""
    probe = [sys.executable, str(common.HERE / "setup_probe.py"), workload,
             str(common.pool_seed(seed, 0))]
    walls = []
    for _ in range(common.SETUP_REPEATS):
        out = life.run(probe + [repr(time.time())], timeout=90.0, cwd=str(common.ROOT))
        walls.append(float(out.split()[-1]))
    return statistics.median(walls)


def _run_call(workload: str, base_seed: int):
    from repro.api import engine

    backend, n_seeds = common.TRAINING_WORKLOADS[workload]
    workers = common.DISTRIBUTED_WORKERS if backend == "distributed" else None
    return engine.run(common.grid_spec(base_seed, n_seeds), backend=backend,
                      max_workers=workers)


def measure(workload: str, seed: int, seconds: float, reference,
            n_calls: int = 0) -> Pass:
    """Run calls until ``seconds`` are used (or exactly ``n_calls`` if given)."""
    result = Pass()
    started = time.perf_counter()
    call = 0
    while True:
        base_seed = common.pool_seed(seed, call)
        start = time.perf_counter()
        report = _run_call(workload, base_seed)
        wall = time.perf_counter() - start
        problems = common.check_trials(report, reference)
        result.failures += [f"grid {base_seed}: {p}" for p in problems]
        result.trials += report.spec.n_trials
        result.results += report.results()
        result.calls.append({
            "base_seed": base_seed, "wall": wall,
            "steps": sum(common.trial_steps(r) for r in report.results()),
            "trial_wall_sum": _distinct_trial_wall(report.results()),
        })
        call += 1
        if n_calls:
            if call >= n_calls:
                return result
        elif time.perf_counter() - started + wall > seconds:
            return result


def _distinct_trial_wall(results) -> float:
    """Trial compute time: lock-step trials share one wall, counted once."""
    return sum({round(r.wall_time_seconds, 9) for r in results})


def warm_up(workload: str) -> None:
    """Load every lazily imported module of the backend before timing."""
    backend, _ = common.TRAINING_WORKLOADS[workload]
    if backend == "distributed":
        return                       # every call starts its own fleet anyway
    from repro.api import engine

    spec = common.grid_spec(common.POOL[0], 1).with_budget(max_episodes=3)
    engine.run(spec, backend=backend)


# ---------------------------------------------------------------------- tracing
def install_wrappers(tracer, workload: str) -> Dict[str, object]:
    """Wrap each layer boundary this workload crosses in this process."""
    from repro.api import engine
    from repro.core.agents import ELMQAgent, OSELMQAgent, _ELMFamilyAgent
    from repro.envs.core import Env
    from repro.linalg import incremental
    from repro.parallel.vector_env import SyncVectorEnv
    from repro.training import strategies
    from repro.training.trainer import Trainer

    tracer.wrap(engine, "run", "api.run")
    tracer.wrap(Trainer, "fit", "training.fit")
    tracer.wrap(Trainer, "fit_lockstep", "training.fit_lockstep")
    tracer.wrap(Env, "step", "envs.step")
    tracer.wrap(Env, "reset", "envs.reset")
    tracer.wrap(_ELMFamilyAgent, "act", "core.act")
    tracer.wrap(ELMQAgent, "observe", "core.observe")
    tracer.wrap(OSELMQAgent, "observe", "core.observe")
    tracer.wrap(incremental.RecursiveInverse, "update", "linalg.rls_update")
    tracer.wrap(incremental, "sherman_morrison_update", "linalg.sherman_morrison")
    tracer.wrap(incremental, "beta_update", "linalg.beta_update")
    for strategy in (strategies.BatchedELMStrategy, strategies.GenericLockstepStrategy):
        tracer.wrap(strategy, "select_actions", "training.select_actions")
    tracer.wrap(strategies.BatchedELMStrategy, "flush_updates", "training.flush_updates")
    tracer.wrap(SyncVectorEnv, "step", "parallel.vector_step",
                count=lambda args, kwargs: len(args[1]))
    probes: Dict[str, object] = {}
    if workload == "sweep_distributed":
        _watch_broker(tracer, probes)
    return probes


def _watch_broker(tracer, probes: Dict[str, object]) -> None:
    """Capture fleet start-up time and the broker's final STATS snapshot."""
    from repro.distributed import SweepBroker

    original_start = SweepBroker.__dict__["start"]
    original_close = SweepBroker.__dict__["close"]
    probes["fleet_up_s"] = []
    probes["stats"] = []

    def start(broker):
        started = time.perf_counter()
        out = original_start(broker)
        stop = threading.Event()

        def watch() -> None:
            while not stop.is_set():
                seen = broker.stats_snapshot()["counters"]["workers_seen"]
                if seen >= common.DISTRIBUTED_WORKERS:
                    probes["fleet_up_s"].append(time.perf_counter() - started)
                    return
                time.sleep(0.002)

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        probes.setdefault("watchers", []).append((watcher, stop))
        return out

    def close(broker):
        probes["stats"].append(broker.stats_snapshot())
        for watcher, stop in probes.get("watchers", []):
            stop.set()
            watcher.join(timeout=1.0)
        return original_close(broker)

    tracer.patch(SweepBroker, "start", start)
    tracer.patch(SweepBroker, "close", close)


def layer_metrics(workload: str, tracer, traced: Pass, untraced: Pass,
                  probes, transport: Dict[str, int]) -> Dict[str, float]:
    """The per-layer metrics of a training workload's traced pass."""
    seconds: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for result in traced.results:
        for label, value in result.breakdown.seconds.items():
            seconds[label] = seconds.get(label, 0.0) + value
        for label, value in result.breakdown.counts.items():
            counts[label] = counts.get(label, 0) + int(value)

    def per_op(label: str, scale: float) -> float:
        return seconds.get(label, 0.0) / counts[label] * scale if counts.get(label) else 0.0

    distributed = workload == "sweep_distributed"
    workers = common.DISTRIBUTED_WORKERS if distributed else 1
    trial_compute = sum(call["trial_wall_sum"] for call in traced.calls) / workers
    fleet_up = probes.get("fleet_up_s") or [0.0]
    fit_name = "training.fit" if workload == "train_serial" else "training.fit_lockstep"
    fit_total = tracer.total(fit_name)
    lanes = tracer.counter("parallel.vector_step")
    pass_wall = tracer.total("bench.pass")
    if distributed:
        unattributed = 1.0 - (sum(fleet_up) + trial_compute) / pass_wall
    else:
        unattributed = (tracer.self_time("api.run") + tracer.self_time("bench.pass")) / pass_wall
    metrics = {
        "envs.step_us": tracer.mean_self_us("envs.step"),
        "envs.steps": traced.steps,
        "core.act_us": tracer.mean_self_us("core.act"),
        "core.observe_us": tracer.mean_self_us("core.observe"),
        "core.predict_init_us": per_op("predict_init", 1e6),
        "core.predict_seq_us": per_op("predict_seq", 1e6),
        "core.seq_train_us": per_op("seq_train", 1e6),
        "core.init_train_ms": per_op("init_train", 1e3),
        "core.seq_train_calls": counts.get("seq_train", 0),
        "core.init_train_calls": counts.get("init_train", 0),
        "core.weight_resets": sum(r.weight_resets for r in traced.results),
        "linalg.sherman_morrison_us": tracer.mean_self_us("linalg.sherman_morrison"),
        "linalg.sherman_morrison_calls": tracer.calls("linalg.sherman_morrison"),
        "linalg.beta_update_us": tracer.mean_self_us("linalg.beta_update"),
        "linalg.rls_update_us": tracer.mean_self_us("linalg.rls_update"),
        "training.glue_share": (tracer.self_time(fit_name) / fit_total
                                if fit_total and not distributed else 0.0),
        "api.run_overhead_s": (traced.wall - trial_compute) / len(traced.calls),
        "training.select_actions_us": tracer.mean_self_us("training.select_actions"),
        "training.flush_updates_us": tracer.mean_self_us("training.flush_updates"),
        "parallel.vector_step_us": tracer.mean_self_us("parallel.vector_step"),
        "parallel.active_lane_share": traced.steps / lanes if lanes else 0.0,
        "bench.unattributed_share": unattributed,
        "bench.tracing_overhead": (traced.wall / traced.steps) / (untraced.wall / untraced.steps)
        - 1.0,
    }
    if distributed:
        broker = [stats["counters"] for stats in probes.get("stats", [])]
        metrics.update({
            "distributed.worker_busy_share": trial_compute / traced.wall,
            "distributed.fleet_up_s": statistics.median(fleet_up),
            "distributed.bytes_sent": transport.get("bytes_sent", 0),
            "distributed.bytes_received": transport.get("bytes_received", 0),
            "distributed.frames": (transport.get("frames_sent", 0)
                                   + transport.get("frames_received", 0)),
            "distributed.requeued_tasks": sum(c["requeued_tasks"] for c in broker),
            "distributed.duplicate_results": sum(c["duplicate_results"] for c in broker),
            "distributed.wait_replies": sum(c["wait_replies"] for c in broker),
        })
    return metrics
