"""One set-up of a training workload, in a fresh interpreter.

Prints the seconds from ``STARTED`` (the parent's ``time.time()`` just
before it started this process) until the set-up is ready: interpreter
start-up, the ``repro`` and numpy imports, building the spec, and
constructing one agent per trial with ``make_design``.  For
``sweep_distributed`` ready also means a broker is up and the local worker
fleet has said HELLO; both are shut down after the time is taken.  Usage::

    python3 e2ebench/setup_probe.py WORKLOAD BASE_SEED STARTED
"""

from __future__ import annotations

import signal
import sys
import time

import common

sys.path.insert(0, str(common.SRC))


def main(workload: str, base_seed: int, started: float) -> int:
    from repro import make_design
    from repro.utils.logging import set_global_level

    set_global_level("warning")
    _, n_seeds = common.TRAINING_WORKLOADS[workload]
    spec = common.grid_spec(base_seed, n_seeds)
    agents = [make_design(task.design, n_hidden=task.n_hidden, gamma=task.gamma,
                          seed=task.seed) for task in spec.tasks()]
    if len(agents) != spec.n_trials:
        raise RuntimeError("spec expanded to the wrong number of trials")
    if workload != "sweep_distributed":
        print(time.time() - started)
        return 0
    from repro.distributed import SweepBroker, spawn_local_workers

    broker = SweepBroker([]).start()
    workers = []
    try:
        workers = spawn_local_workers(*broker.address, common.DISTRIBUTED_WORKERS)
        deadline = time.monotonic() + 60.0
        while broker.stats_snapshot()["counters"]["workers_seen"] < len(workers):
            if time.monotonic() > deadline:
                raise TimeoutError("worker fleet did not say HELLO within 60 s")
            time.sleep(0.002)
        print(time.time() - started)
    finally:
        broker.close()
        for worker in workers:
            worker.join(timeout=5.0)
            if worker.is_alive():
                worker.kill()
                worker.join()
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds through the ``finally`` above, so workers are joined.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3])))
