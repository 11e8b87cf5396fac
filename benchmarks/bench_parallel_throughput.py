"""Benchmark: aggregate env-steps/sec of the parallel rollout engine.

Measures, on identical multi-seed CartPole workloads:

1. the serial baseline — the plain ``Trainer().fit`` loop over the sweep's
   trials, exactly what ``experiments/training_curve.py`` did before the
   ``repro.parallel`` subsystem;
2. ``SweepRunner(backend="vectorized")`` — lock-step batched training over
   the vectorized environment;
3. ``SweepRunner(backend="distributed")`` — the TCP broker + local worker
   fleet of :mod:`repro.distributed`;
4. (full mode) ``SweepRunner(backend="process")`` — process-pool fan-out,
   which only wins with more physical cores than trials.

It additionally measures the :class:`~repro.parallel.AsyncVectorEnv`
overlap win (double-buffered step/update pipeline vs the synchronous
subprocess loop under an identical synthetic agent-update load) and
cross-checks that ``SyncVectorEnv`` and ``SubprocVectorEnv`` produce
identical trajectories under identical seeds, so every speedup is a
throughput statement, not a semantics change.

Run directly (the suite's pytest collection ignores ``bench_*`` files)::

    PYTHONPATH=src python benchmarks/bench_parallel_throughput.py --smoke

``--smoke`` keeps the whole run well under a minute; the default budget
measures longer runs for stabler numbers.  ``--json PATH`` additionally
dumps every measured rate as one machine-readable document — the CI bench
job uploads it as the ``BENCH_parallel.json`` artifact on every push, so
the per-backend perf trajectory is tracked instead of lost in logs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro.experiments.reporting import format_table
from repro.parallel import (
    AsyncVectorEnv,
    EnvFactory,
    SubprocVectorEnv,
    SweepRunner,
    SweepSpec,
    SyncVectorEnv,
    pipelined_rollout,
)
from repro.training import Trainer, TrainingConfig


def verify_sync_subproc_identical(num_envs: int = 3, steps: int = 150,
                                  seed: int = 123) -> bool:
    """Drive Sync and Subproc vector envs with one action stream; compare."""
    env_fns = [EnvFactory("CartPole-v0", seed=seed + i) for i in range(num_envs)]
    sync_env = SyncVectorEnv(env_fns)
    subproc_env = SubprocVectorEnv(env_fns)
    try:
        obs_sync, _ = sync_env.reset()
        obs_sub, _ = subproc_env.reset()
        if not np.array_equal(obs_sync, obs_sub):
            return False
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            actions = rng.integers(0, 2, size=num_envs)
            result_sync = sync_env.step(actions)
            result_sub = subproc_env.step(actions)
            if not (np.array_equal(result_sync.observations, result_sub.observations)
                    and np.array_equal(result_sync.terminated, result_sub.terminated)
                    and np.array_equal(result_sync.truncated, result_sub.truncated)):
                return False
        return True
    finally:
        subproc_env.close()
        sync_env.close()


def bench_subproc_batching(num_envs: int = 2, messages: int = 200,
                           batch_sizes=(1, 4), seed: int = 77) -> list:
    """Messages/sec and env-steps/sec of SubprocVectorEnv per steps_per_message.

    Each configuration drives the same number of pipe messages with a fixed
    action stream; with ``steps_per_message=k`` every message advances up to
    k env steps, so the round-trip cost amortizes and aggregate env-steps/sec
    should rise with k (the ROADMAP item this measures).
    """
    rows = []
    base_rate = None
    for k in batch_sizes:
        env_fns = [EnvFactory("CartPole-v0", seed=seed + i) for i in range(num_envs)]
        venv = SubprocVectorEnv(env_fns, steps_per_message=k)
        try:
            venv.reset(seed=seed)
            rng = np.random.default_rng(seed)
            env_steps = 0
            start = time.perf_counter()
            for _ in range(messages):
                actions = rng.integers(0, 2, size=num_envs)
                result = venv.step(actions)
                env_steps += sum(info.get("frames", 1) for info in result.infos)
            seconds = time.perf_counter() - start
        finally:
            venv.close()
        rate = env_steps / seconds
        if base_rate is None:
            base_rate = rate
        rows.append({
            "steps_per_message": k,
            "messages": messages,
            "env_steps": env_steps,
            "seconds": round(seconds, 3),
            "env_steps_per_sec": round(rate),
            "speedup": round(rate / base_rate, 2),
        })
    return rows


def bench_async_overlap(num_envs: int = 2, rounds: int = 150,
                        update_flops_dim: int = 96, seed: int = 55) -> list:
    """steps/sec of sync-vs-async subprocess stepping under an update load.

    Both paths drive the same number of env steps and perform one synthetic
    agent update (a ``dim x dim`` matmul) per round; the async path launches
    the next env step *before* running the update, so the workers integrate
    while the parent multiplies — the overlap the ROADMAP's async item asks
    for.  The reported speedup is bounded by
    ``min(step_time, update_time) / total_time``, grows with env cost, and —
    like every speedup in this file — is machine-dependent: on a single-core
    box the parent and workers serialize on the hardware and the ratio sits
    near 1.0, so it is reported, not asserted.
    """
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((update_flops_dim, update_flops_dim))

    def synthetic_update(*_ignored) -> None:
        nonlocal weights
        weights = np.tanh(weights @ weights) * 0.5

    rows = []
    sync_rate = None
    for mode in ("subproc-sync", "async-pipelined"):
        env_fns = [EnvFactory("CartPole-v0", seed=seed + i)
                   for i in range(num_envs)]
        if mode == "subproc-sync":
            venv = SubprocVectorEnv(env_fns)
        else:
            venv = AsyncVectorEnv(env_fns)
        try:
            action_rng = np.random.default_rng(seed)

            def policy(observations):
                return action_rng.integers(0, 2, size=len(observations))

            start = time.perf_counter()
            if mode == "subproc-sync":
                observations, _ = venv.reset(seed=seed)
                env_steps = 0
                for _ in range(rounds):
                    result = venv.step(policy(observations))
                    synthetic_update(observations, None, result)
                    observations = result.observations
                    env_steps += sum(info.get("frames", 1)
                                     for info in result.infos)
            else:
                stats = pipelined_rollout(venv, policy, rounds,
                                          update=synthetic_update, seed=seed)
                env_steps = int(stats["env_steps"])
            seconds = time.perf_counter() - start
        finally:
            venv.close()
        rate = env_steps / seconds
        if sync_rate is None:
            sync_rate = rate
        rows.append({
            "engine": mode,
            "env_steps": env_steps,
            "seconds": round(seconds, 3),
            "env_steps_per_sec": round(rate),
            "speedup": round(rate / sync_rate, 2),
        })
    return rows


def bench_autoscale_lockstep(seeds: int = 2, episodes: int = 6,
                             root_seed: int = 909):
    """Serial vs lock-step sweep throughput on the Autoscale-v0 systems env.

    The generic batched fast path (``AutoscaleEnv.batch_dynamics`` driven by
    ``SyncVectorEnv``) carries the vectorized backend here, so a regression
    that silently drops Autoscale-v0 off the fast path shows up as a rate
    collapse in the committed baseline.  Returns ``(rows, rates, identical)``
    where ``identical`` asserts the serial and lock-step curves match
    exactly — the bit-identity contract, not just a speed number.
    """
    training = TrainingConfig(env_id="Autoscale-v0", max_episodes=episodes,
                              max_steps_per_episode=60,
                              solved_threshold=10_000.0, stop_when_solved=False,
                              reward_shaping=False)
    spec = SweepSpec(designs=("OS-ELM-L2-Lipschitz",), n_seeds=seeds,
                     n_hidden=16, training=training, root_seed=root_seed)
    rows, rates, curves = [], {}, {}
    serial_rate = None
    for backend in ("serial", "vectorized"):
        start = time.perf_counter()
        sweep = SweepRunner(spec, backend=backend).run()
        seconds = time.perf_counter() - start
        rate = sweep.total_env_steps / seconds
        if serial_rate is None:
            serial_rate = rate
        key = "autoscale_lockstep" if backend == "vectorized" else "autoscale_serial"
        rates[key] = rate
        curves[backend] = [tuple(result.curve.steps)
                           for result in sweep.results_for()]
        rows.append({
            "engine": f"SweepRunner backend={backend}",
            "env_steps": sweep.total_env_steps,
            "seconds": round(seconds, 3),
            "steps_per_sec": round(rate),
            "speedup": round(rate / serial_rate, 2),
        })
    identical = curves["serial"] == curves["vectorized"]
    return rows, rates, identical


def bench(args: argparse.Namespace) -> int:
    training = TrainingConfig(max_episodes=args.episodes,
                              solved_threshold=10_000.0,   # fixed workload: never early-stop
                              stop_when_solved=False)
    spec = SweepSpec(designs=(args.design,), n_seeds=args.seeds,
                     n_hidden=args.hidden, training=training,
                     root_seed=args.root_seed)
    tasks = spec.tasks()

    print(f"workload: {args.seeds}-seed {args.design} (n_hidden={args.hidden}) x "
          f"{args.episodes} episodes on CartPole-v0\n")

    start = time.perf_counter()
    serial_steps = 0
    for task in tasks:
        result = Trainer().fit(task.make_agent(), config=task.training,
                               n_hidden=task.n_hidden)
        serial_steps += int(result.curve.steps.sum())
    serial_seconds = time.perf_counter() - start
    serial_rate = serial_steps / serial_seconds

    rows = [{
        "engine": "serial Trainer().fit loop",
        "env_steps": serial_steps,
        "seconds": round(serial_seconds, 3),
        "steps_per_sec": round(serial_rate),
        "speedup": 1.0,
    }]

    backends = (["vectorized", "distributed"] if args.smoke
                else ["vectorized", "distributed", "process"])
    backend_rates = {"serial": serial_rate}
    for backend in backends:
        start = time.perf_counter()
        kwargs = {"max_workers": args.workers} if backend == "distributed" else {}
        sweep = SweepRunner(spec, backend=backend, **kwargs).run()
        seconds = time.perf_counter() - start
        rate = sweep.total_env_steps / seconds
        backend_rates[backend] = rate
        rows.append({
            "engine": f"SweepRunner backend={backend}",
            "env_steps": sweep.total_env_steps,
            "seconds": round(seconds, 3),
            "steps_per_sec": round(rate),
            "speedup": round(rate / serial_rate, 2),
        })

    print(format_table(rows, title="Parallel rollout throughput"))

    batching_rows = bench_subproc_batching(
        messages=100 if args.smoke else 400)
    print()
    print(format_table(batching_rows,
                       title="SubprocVectorEnv: env steps batched per pipe message"))

    async_rows = bench_async_overlap(rounds=100 if args.smoke else 400)
    print()
    print(format_table(async_rows,
                       title="AsyncVectorEnv: step/update overlap vs sync subproc"))
    # Keyed distinctly from the sweep backends: the async number measures a
    # random-policy rollout under a synthetic update load, not a training
    # sweep, so it must not be read as like-for-like with the rows above.
    backend_rates["async_rollout"] = float(async_rows[-1]["env_steps_per_sec"])

    autoscale_rows, autoscale_rates, autoscale_identical = \
        bench_autoscale_lockstep(episodes=4 if args.smoke else 10)
    backend_rates.update(autoscale_rates)
    print()
    print(format_table(autoscale_rows,
                       title="Autoscale-v0 (systems env): serial vs lock-step sweep"))
    print(f"Autoscale-v0 serial == lock-step curves (seeded): "
          f"{'OK' if autoscale_identical else 'MISMATCH'}")

    identical = verify_sync_subproc_identical()
    print(f"\nSyncVectorEnv == SubprocVectorEnv trajectories (seeded): "
          f"{'OK' if identical else 'MISMATCH'}")

    vectorized_rate = backend_rates["vectorized"]
    speedup = vectorized_rate / serial_rate
    target = 3.0
    if speedup >= target:
        print(f"vectorized speedup {speedup:.2f}x >= {target}x target")
    else:
        print(f"WARNING: vectorized speedup {speedup:.2f}x below the {target}x target "
              f"(machine-dependent; rerun without other load)")

    if args.json is not None:
        document = {
            "workload": {
                "design": args.design,
                "seeds": args.seeds,
                "n_hidden": args.hidden,
                "episodes": args.episodes,
                "smoke": bool(args.smoke),
            },
            "steps_per_sec": {name: round(rate, 1)
                              for name, rate in sorted(backend_rates.items())},
            "subproc_batching": batching_rows,
            "async_overlap": async_rows,
            "autoscale_lockstep": autoscale_rows,
            "autoscale_serial_vectorized_identical": autoscale_identical,
            "sync_subproc_identical": identical,
        }
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"json: {path}")
    return 0 if identical and autoscale_identical else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small budget, finishes in seconds (CI smoke check)")
    parser.add_argument("--seeds", type=int, default=4, help="trials in the sweep")
    parser.add_argument("--design", default="OS-ELM-L2-Lipschitz",
                        help="design name for every trial")
    parser.add_argument("--hidden", type=int, default=32, help="hidden-layer size")
    parser.add_argument("--episodes", type=int, default=None,
                        help="episodes per trial (default 100 smoke / 300 full)")
    parser.add_argument("--workers", type=int, default=2,
                        help="local worker processes for the distributed backend")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write all measured rates as a JSON document "
                             "(the CI BENCH_parallel.json artifact)")
    parser.add_argument("--root-seed", type=int, default=2024)
    args = parser.parse_args(argv)
    if args.episodes is None:
        args.episodes = 100 if args.smoke else 300
    return bench(args)


if __name__ == "__main__":
    raise SystemExit(main())
