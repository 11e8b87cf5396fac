"""The ``serve`` workload: a ``repro serve`` daemon under closed and open loops.

Set-up trains an OS-ELM-L2-Lipschitz N=64 policy with ``repro run
--save-policy``, starts ``repro serve`` on it in its own process (shipped
``--max-batch 8 --max-wait-us 2000``, plus ``--max-seconds`` as a backstop)
and waits for the first correct reply.

* Phase A, closed loop: two RL controllers, each on its own connection,
  step a CartPole env with every action the daemon serves and wait for
  each reply before sending the next state.
* Phase B, open loop: one connection, a sender thread that sends ACT frames
  at seeded Poisson arrival times and a receiver thread that reads the
  replies.  Each request is timed from when it was due.  At 250 rps the
  batcher's timer sets latency; at 2000 rps batches form.

Every served action is compared with offline ``agent.act(s, explore=False)``
on the same policy, loaded from the store the daemon serves.
"""

from __future__ import annotations

import json
import math
import os
import select
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import common
from procs import stop_process

DESIGN = "OS-ELM-L2-Lipschitz"
POLICY_EPISODES = 200
MAX_BATCH = 8
MAX_WAIT_US = 2000
CLIENTS = 2
OPEN_RATES = (250, 2000)
#: Share of the run's seconds each phase gets.
PHASES = {"closed": 0.6, "open250": 0.2, "open2000": 0.2}
#: Latency charged to a request that failed or was refused.
FAILED_LATENCY_MS = 1e6
#: The daemon exits on its own after this long, whatever happens to us.
DAEMON_BACKSTOP_S = 175
#: CartPole observation ranges the open-loop states are drawn from.
STATE_LOW = (-2.4, -2.0, -0.21, -2.0)
STATE_HIGH = (2.4, 2.0, 0.21, 2.0)


@dataclass
class Service:
    """A running daemon plus the offline copy of the policy it serves."""

    daemon: object
    host: str
    port: int
    agent: object


@dataclass
class Requests:
    """Served (state, action) pairs and request timings of one phase."""

    states: List[List[float]] = field(default_factory=list)
    actions: List[int] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    failed: int = 0
    steps: int = 0
    wall: float = 0.0


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(common.SRC)
    return env


def start_service(life, seed: int, index: int) -> Service:
    """Train, save and serve a policy; returns once a reply matched offline."""
    from repro.api.spec import Budget, ExperimentSpec
    from repro.api.store import ArtifactStore
    from repro.serving import PolicyClient, load_spec_policies

    workdir = life.scratch / f"serve-{index}"
    workdir.mkdir(parents=True, exist_ok=True)
    spec = ExperimentSpec(name="e2ebench-serve", designs=(DESIGN,), hidden_sizes=(64,),
                          n_seeds=1, seed=1000 + seed,
                          budget=Budget(max_episodes=POLICY_EPISODES))
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec.to_json()))
    store = workdir / "store"
    repro = [sys.executable, "-m", "repro"]
    life.run(repro + ["run", str(spec_path), "--backend", "serial", "--save-policy",
                      "--out", str(store), "--quiet"], timeout=60.0, env=_child_env())
    log = (workdir / "daemon.log").open("w")
    try:
        daemon = life.popen(
            repro + ["serve", str(spec_path), "--store", str(store),
                     "--bind", "127.0.0.1:0", "--max-batch", str(MAX_BATCH),
                     "--max-wait-us", str(MAX_WAIT_US),
                     "--max-seconds", str(DAEMON_BACKSTOP_S)],
            stdout=subprocess.PIPE, stderr=log, text=True,
            env=_child_env())
    finally:
        log.close()
    host, port = _read_banner(daemon, timeout=30.0)
    policies, problems = load_spec_policies(ArtifactStore(str(store)), spec)
    if problems:
        raise RuntimeError(f"trained policy not found: {problems}")
    agent = policies[DESIGN]
    state = [0.01, -0.02, 0.03, 0.04]
    with PolicyClient(host, port, design=DESIGN) as client:
        served = client.act(state)
    if served != int(agent.act(_array(state), explore=False)):
        raise RuntimeError("first served action differs from offline greedy evaluation")
    return Service(daemon, host, port, agent)


def _read_banner(daemon, timeout: float):
    """``(host, port)`` from the daemon's ``serving ... at HOST:PORT`` line."""
    ready, _, _ = select.select([daemon.stdout], [], [], timeout)
    if not ready:
        raise TimeoutError(f"repro serve printed no banner within {timeout}s")
    line = daemon.stdout.readline()
    if " at " not in line:
        raise RuntimeError(f"unexpected banner from repro serve: {line!r}")
    host, port = line.rsplit(" at ", 1)[1].strip().rsplit(":", 1)
    return host, int(port)


def _array(state):
    import numpy as np

    return np.asarray(state, dtype=np.float64)


def setup(life, seed: int):
    """Start the service ``SETUP_REPEATS`` times; keep the last, time each."""
    walls, service = [], None
    for index in range(common.SETUP_REPEATS):
        if service is not None:
            stop_process(service.daemon)
        start = time.perf_counter()
        service = start_service(life, seed, index)
        walls.append(time.perf_counter() - start)
    return service, statistics.median(walls)


# ---------------------------------------------------------------------- phase A
def closed_loop(service: Service, seed: int, seconds: float, tracer=None) -> Requests:
    """``CLIENTS`` controllers, each waiting for every action it acts on."""
    from repro.envs import make as make_env
    from repro.serving import PolicyClient

    out = Requests()
    lock = threading.Lock()
    errors: List[BaseException] = []
    clients: List[object] = []

    def controller(index: int, client) -> None:
        env = make_env(common.ENV_ID, seed=seed * 10 + index)
        step = env.step
        if tracer is not None:
            def step(action, _step=env.step):
                with tracer.span("envs.step"):
                    return _step(action)
        local = Requests()
        try:
            with _maybe_span(tracer, "bench.controller"):
                state, _ = env.reset()
                request = 0
                while time.perf_counter() < stop_at:
                    start = time.perf_counter()
                    if tracer is None:
                        action = client.act(state)
                    else:
                        with tracer.span("serving.round_trip", f"c{index}-{request}"):
                            action = client.act(state)
                    local.latencies_ms.append((time.perf_counter() - start) * 1e3)
                    local.states.append(state.tolist())
                    local.actions.append(action)
                    result = step(action)
                    local.steps += 1
                    request += 1
                    state = env.reset()[0] if result.done else result.observation
        except BaseException as error:     # reported by the main thread
            errors.append(error)
        with lock:
            out.states += local.states
            out.actions += local.actions
            out.latencies_ms += local.latencies_ms
            out.steps += local.steps

    threads: List[threading.Thread] = []
    try:
        for _ in range(CLIENTS):
            clients.append(PolicyClient(service.host, service.port, design=DESIGN))
        start = time.perf_counter()
        stop_at = start + seconds
        for index, client in enumerate(clients):
            threads.append(threading.Thread(target=controller, args=(index, client),
                                            daemon=True))
            threads[-1].start()
        for thread in threads:
            thread.join(timeout=seconds + 30.0)
    finally:
        for client in clients:
            client.close()
        for thread in threads:
            if thread.ident is not None:           # started
                thread.join(timeout=5.0)
    out.wall = time.perf_counter() - start
    if errors:
        raise RuntimeError(f"closed-loop controller failed: {errors[0]!r}") from errors[0]
    return out


def _maybe_span(tracer, name):
    from contextlib import nullcontext

    return nullcontext() if tracer is None else tracer.span(name)


# ---------------------------------------------------------------------- phase B
def open_loop(service: Service, seed: int, rate: float, seconds: float) -> Requests:
    """Requests at seeded Poisson arrival times, one sender and one receiver."""
    import numpy as np

    from repro.distributed import protocol
    from repro.serving import PolicyClient

    rng = np.random.default_rng([seed, int(rate)])
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5)))
    offsets = offsets[offsets < seconds]
    states = rng.uniform(STATE_LOW, STATE_HIGH, size=(len(offsets), 4))
    n = len(offsets)
    sent = [math.nan] * n
    done = [math.nan] * n
    actions: List[Optional[int]] = [None] * n
    sockets: List[socket.socket] = []

    def connect(host, port, timeout):
        sock = socket.create_connection((host, port), timeout=timeout)
        sockets.append(sock)
        return sock

    client = PolicyClient(service.host, service.port, design=DESIGN, timeout=10.0,
                          connect_factory=connect)
    sock = sockets[0]
    errors: List[BaseException] = []

    def sender(origin: float) -> None:
        try:
            for i in range(n):
                delay = origin + offsets[i] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent[i] = time.perf_counter()
                protocol.send_message(sock, protocol.ACT, (DESIGN, states[i]))
        except BaseException as error:
            errors.append(error)

    def receiver() -> None:
        try:
            for i in range(n):
                kind, payload = protocol.recv_message(sock)
                done[i] = time.perf_counter()
                if kind == protocol.ACTION:
                    actions[i] = int(payload)
        except BaseException as error:
            errors.append(error)

    origin = time.perf_counter() + 0.05
    threads = [threading.Thread(target=sender, args=(origin,), daemon=True),
               threading.Thread(target=receiver, daemon=True)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 30.0)
    finally:
        client.close()
        for thread in threads:
            if thread.ident is not None:           # started
                thread.join(timeout=5.0)
    out = Requests(wall=seconds)
    for i in range(n):
        due = origin + offsets[i]
        if actions[i] is None or math.isnan(done[i]):
            out.failed += 1
            out.latencies_ms.append(FAILED_LATENCY_MS)
            continue
        out.latencies_ms.append((done[i] - due) * 1e3)
        out.late_ms.append((sent[i] - due) * 1e3)
        out.states.append(states[i].tolist())
        out.actions.append(actions[i])
    if errors and out.failed == 0:
        raise RuntimeError(f"open-loop traffic failed: {errors[0]!r}") from errors[0]
    return out


# ---------------------------------------------------------------------- checks
def mismatches(agent, requests: Requests) -> int:
    """Served actions that differ from offline greedy evaluation."""
    return sum(int(agent.act(_array(state), explore=False)) != action
               for state, action in zip(requests.states, requests.actions))


def server_stats(service: Service) -> Dict[str, object]:
    from repro.serving import PolicyClient

    with PolicyClient(service.host, service.port, design=DESIGN) as client:
        return client.stats()


def act_batch_us(agent, batch: int, repeats: int = 300) -> float:
    """Median offline ``act_batch`` time: the compute floor of one dispatch."""
    import numpy as np

    states = np.random.default_rng(batch).uniform(STATE_LOW, STATE_HIGH, size=(batch, 4))
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        agent.act_batch(states, explore=False)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls) * 1e6


@dataclass
class ServeRun:
    phases: Dict[str, Requests]
    stats_closed: Dict[str, object]
    stats_final: Dict[str, object]
    failed: int
    attempted: int


def run_phases(service: Service, seed: int, seconds: float) -> ServeRun:
    phases = {"closed": closed_loop(service, seed, seconds * PHASES["closed"])}
    stats_closed = server_stats(service)
    for rate in OPEN_RATES:
        name = f"open{rate}"
        phases[name] = open_loop(service, seed, rate, seconds * PHASES[name])
    stats_final = server_stats(service)
    failed = sum(p.failed + mismatches(service.agent, p) for p in phases.values())
    attempted = sum(len(p.latencies_ms) for p in phases.values())
    return ServeRun(phases, stats_closed, stats_final, failed, attempted)


def phase_metrics(run: ServeRun) -> Dict[str, float]:
    """Latency and throughput of every phase (all from untraced traffic)."""
    closed = run.phases["closed"]
    metrics = {"serve.closed_rps": len(closed.latencies_ms) / closed.wall}
    for name, requests in run.phases.items():
        metrics[f"serve.{name}_p50_ms"] = common.percentile(requests.latencies_ms, 50)
        metrics[f"serve.{name}_p99_ms"] = common.percentile(requests.latencies_ms, 99)
    return metrics


def serving_layer_metrics(run: ServeRun) -> Dict[str, float]:
    histograms = run.stats_closed["metrics"]["histograms"]
    latency = histograms["serving.request_latency_seconds"]
    counters = run.stats_final["metrics"]["counters"]
    closed_p50 = common.percentile(run.phases["closed"].latencies_ms, 50)
    late = [ms for name in ("open250", "open2000") for ms in run.phases[name].late_ms]
    return {
        "serving.server_p50_ms": latency["p50"] * 1e3,
        "serving.server_p99_ms": latency["p99"] * 1e3,
        "serving.batch_mean": histograms["serving.batch_size"]["mean"],
        "serving.requests": counters["serving.requests"],
        "serving.errors": counters["serving.errors"],
        "serving.wire_p50_ms": closed_p50 - latency["p50"] * 1e3,
        "bench.generator_late_p99_ms": common.percentile(late, 99) if late else 0.0,
    }
