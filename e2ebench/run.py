"""End-to-end benchmark of the repro system, with an optional traced run.

Usage, from the repository root::

    python3 e2ebench/run.py --workload train_serial --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the
measured work with timing wrappers around each layer and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
machine fingerprint.  The full record (fingerprint, every metric, and the
traced run's spans) is written under ``.e2ebench_out/``.  The exit code is 0
only when every output was correct and no process the run started is still
alive.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

#: BLAS threads of the benchmark and every process it starts.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "env_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "envs.step_us": "us", "envs.steps": "count",
    "core.act_us": "us", "core.observe_us": "us",
    "core.predict_init_us": "us", "core.predict_seq_us": "us",
    "core.seq_train_us": "us", "core.init_train_ms": "ms",
    "core.seq_train_calls": "count", "core.init_train_calls": "count",
    "core.weight_resets": "count",
    "core.act_batch_us.b1": "us", "core.act_batch_us.b8": "us",
    "linalg.sherman_morrison_us": "us", "linalg.sherman_morrison_calls": "count",
    "linalg.beta_update_us": "us", "linalg.rls_update_us": "us",
    "training.glue_share": "share", "api.run_overhead_s": "s",
    "training.select_actions_us": "us", "training.flush_updates_us": "us",
    "parallel.vector_step_us": "us", "parallel.active_lane_share": "share",
    "distributed.worker_busy_share": "share", "distributed.fleet_up_s": "s",
    "distributed.bytes_sent": "bytes", "distributed.bytes_received": "bytes",
    "distributed.frames": "count", "distributed.requeued_tasks": "count",
    "distributed.duplicate_results": "count", "distributed.wait_replies": "count",
    "serving.server_p50_ms": "ms", "serving.server_p99_ms": "ms",
    "serving.batch_mean": "count", "serving.requests": "count",
    "serving.errors": "count", "serving.wire_p50_ms": "ms",
    "serve.closed_rps": "1/s", "serve.closed_p50_ms": "ms", "serve.closed_p99_ms": "ms",
    "serve.open250_p50_ms": "ms", "serve.open250_p99_ms": "ms",
    "serve.open2000_p50_ms": "ms", "serve.open2000_p99_ms": "ms",
    "bench.unattributed_share": "share", "bench.tracing_overhead": "share",
    "bench.generator_late_p99_ms": "ms", "bench.failed_share": "share",
}


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    failures: List[str]                 # what failed, for the log
    record: Dict[str, object] = field(default_factory=dict)
    tracer: object = None


def _parse(argv) -> argparse.Namespace:
    import common

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------- workloads
def _training(args, life) -> Outcome:
    import common
    import training_workloads as training
    from tracer import Tracer

    from repro.distributed import transport_counters

    reference = common.load_reference()
    setup_s = training.time_setup(args.workload, args.seed, life)
    training.warm_up(args.workload)
    if not args.trace:
        measured = training.measure(args.workload, args.seed, args.seconds, reference)
        return Outcome({"env_steps_per_s": measured.steps / measured.wall,
                        "setup_s": setup_s}, measured.trials, len(measured.failures),
                       measured.failures, {"calls": measured.calls})
    untraced = training.measure(args.workload, args.seed, args.seconds / 2, reference)
    tracer = Tracer()
    before = transport_counters().snapshot()
    try:
        probes = training.install_wrappers(tracer, args.workload)
        with tracer.span("bench.pass"):
            traced = training.measure(args.workload, args.seed, 0, reference,
                                      n_calls=len(untraced.calls))
    finally:
        tracer.restore()
    after = transport_counters().snapshot()
    transport = {key: after[key] - before.get(key, 0) for key in after}
    metrics = training.layer_metrics(args.workload, tracer, traced, untraced, probes,
                                     transport)
    failures = untraced.failures + traced.failures
    return Outcome(metrics, untraced.trials + traced.trials, len(failures), failures,
                   {"untraced_calls": untraced.calls, "traced_calls": traced.calls},
                   tracer)


def _serve(args, life) -> Outcome:
    import common
    import serve_workload as serve
    from tracer import Tracer

    service, setup_s = serve.setup(life, args.seed)
    measured = serve.run_phases(service, args.seed, args.seconds)
    closed = measured.phases["closed"]
    record = {"phases": {name: {"failed": p.failed, **common.tail_summary(p.latencies_ms)}
                         for name, p in measured.phases.items()},
              "phase_metrics": serve.phase_metrics(measured)}
    failures = [f"{measured.failed} of {measured.attempted} requests failed or "
                f"differed from offline greedy evaluation"] if measured.failed else []
    if not args.trace:
        return Outcome({"env_steps_per_s": closed.steps / closed.wall, "setup_s": setup_s},
                       measured.attempted, measured.failed, failures, record)
    tracer = Tracer()
    traced = serve.closed_loop(service, args.seed, args.seconds * serve.PHASES["closed"],
                               tracer)
    mismatched = serve.mismatches(service.agent, traced)
    if mismatched:
        failures.append(f"{mismatched} traced requests differed from offline evaluation")
    controller = tracer.total("bench.controller")
    metrics = {
        **record["phase_metrics"],
        **serve.serving_layer_metrics(measured),
        "envs.step_us": tracer.mean_self_us("envs.step"),
        "envs.steps": closed.steps,
        "core.act_batch_us.b1": serve.act_batch_us(service.agent, 1),
        "core.act_batch_us.b8": serve.act_batch_us(service.agent, 8),
        "bench.unattributed_share": tracer.self_time("bench.controller") / controller,
        "bench.tracing_overhead": (closed.steps / closed.wall)
        / (traced.steps / traced.wall) - 1.0,
    }
    return Outcome(metrics, measured.attempted + len(traced.latencies_ms),
                   measured.failed + mismatched, failures, record, tracer)


# ---------------------------------------------------------------------- reporting
def _blas_threads() -> object:
    """Threads the loaded OpenBLAS reports, or the pinned value if unknown."""
    for line in Path("/proc/self/maps").read_text().splitlines():
        path = line.split()[-1]
        if "openblas" in path.lower() and path.startswith("/"):
            library = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                getter = getattr(library, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    return int(getter())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def _fingerprint(load_at_start) -> Dict[str, object]:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "loadavg_at_start": [round(x, 2) for x in load_at_start],
        "machine": platform.machine(),
    }


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _metric_block(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, object]:
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    for variable in BLAS_ENV:
        os.environ[variable] = "1"          # before numpy is imported anywhere
    os.environ["REPRO_TELEMETRY"] = "0"
    args = _parse(argv)
    import common

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro sources under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    from procs import Interrupted, Lifetime, reap_leftovers

    load_at_start = os.getloadavg()
    started = time.perf_counter()
    outcome, exit_code = None, 0
    try:
        with Lifetime(common.ROOT) as life:
            from repro.utils.logging import set_global_level

            set_global_level("warning")
            workload = _serve if args.workload == "serve" else _training
            outcome = workload(args, life)
    except Interrupted as stop:
        print(f"e2ebench: {stop}", file=sys.stderr)
        exit_code = stop.exit_code
    except Exception:                       # noqa: BLE001 - reported, run fails
        traceback.print_exc()
        exit_code = 1
    leftovers = reap_leftovers()
    if leftovers:
        print("e2ebench: FAILED - processes still alive after clean-up (killed now):",
              file=sys.stderr)
        for pid, command in leftovers:
            print(f"  pid {pid}: {command}", file=sys.stderr)
        exit_code = exit_code or 3
    if outcome is None:
        return exit_code or 1
    failures = outcome.failures + [f"left running: {cmd}" for _, cmd in leftovers]
    failed = outcome.failed + len(leftovers)
    values = dict(outcome.metrics)
    values["peak_rss_mb"] = _peak_rss_mb()
    values["bench.failed_share"] = failed / max(outcome.attempted, 1)
    units = PER_LAYER if args.trace else END_TO_END
    result = {"correct": failed == 0, "attempted": int(outcome.attempted),
              "failed": int(failed), "metrics": _metric_block(values, units)}
    fingerprint = _fingerprint(load_at_start)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "wall_s": time.perf_counter() - started,
              "fingerprint": fingerprint, "failures": failures, "result": result,
              "all_metrics": values, **outcome.record}
    out = common.ROOT / ".e2ebench_out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if outcome.tracer is not None:
        outcome.tracer.write(out.with_suffix(".spans.json"))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str))
    for failure in failures[:20]:
        print(f"e2ebench: incorrect: {failure}", file=sys.stderr)
    print(json.dumps({"fingerprint": fingerprint}))
    print(json.dumps(result))
    return exit_code or (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
