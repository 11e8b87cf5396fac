"""The actuation half of the elastic fleet: own local worker processes.

:class:`WorkerSupervisor` spawns ``repro worker`` loops as local
subprocesses (the same spawn-context mechanics as
:func:`repro.distributed.coordinator.spawn_local_workers`) and retires
them.  Retirement is layered, gentlest first:

1. the autoscaler asks the *broker* to ``DRAIN`` the worker (see
   :mod:`repro.fleet.control`) — the worker finishes its lease batch,
   delivers every result, and exits on its own;
2. :meth:`WorkerSupervisor.signal` sends SIGTERM, which the worker's
   signal handler turns into the same finish-then-exit drain from the
   process side (also the path when the broker is unreachable);
3. :meth:`WorkerSupervisor.stop_all` escalates to ``kill()`` only for
   processes that ignored both within the timeout.

The supervisor never decides anything — policies do — and it only ever
touches processes it spawned, so external ``repro worker --connect``
fleets sharing the broker are invisible to it.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.utils.logging import get_logger

_LOGGER = get_logger("repro.fleet.supervisor")


class WorkerSupervisor:
    """Spawn, track, signal and reap local worker processes for one broker.

    Parameters
    ----------
    host, port:
        The broker address handed to every spawned worker.
    heartbeat_interval:
        Worker-side keep-alive cadence (see
        :class:`~repro.distributed.worker.WorkerOptions`).
    context:
        Multiprocessing start method; ``spawn`` for the same
        fork-with-threads reasons as ``spawn_local_workers``.
    id_prefix:
        Worker ids are ``{id_prefix}-{serial}``; the serial never repeats,
        so a retired id is never reused and broker-side drain accounting
        stays unambiguous.
    """

    def __init__(self, host: str, port: int, *,
                 heartbeat_interval: float = 2.0, context: str = "spawn",
                 id_prefix: str = "fleet") -> None:
        self.host = host
        self.port = int(port)
        self.heartbeat_interval = float(heartbeat_interval)
        self.id_prefix = id_prefix
        self._ctx = mp.get_context(context)
        self._serial = 0
        self._processes: Dict[str, mp.process.BaseProcess] = {}
        self._spawned_at: Dict[str, float] = {}

    # ------------------------------------------------------------------ spawn
    def scale_up(self, count: int) -> List[str]:
        """Start ``count`` worker processes; returns their worker ids."""
        from repro.distributed.coordinator import _local_worker_main

        spawned: List[str] = []
        for _ in range(max(0, int(count))):
            worker_id = f"{self.id_prefix}-{self._serial}"
            self._serial += 1
            process = self._ctx.Process(
                target=_local_worker_main,
                args=(self.host, self.port, worker_id,
                      self.heartbeat_interval),
                daemon=True, name=f"repro-{worker_id}")
            process.start()
            self._processes[worker_id] = process
            self._spawned_at[worker_id] = time.monotonic()
            spawned.append(worker_id)
        if spawned:
            _LOGGER.info("workers spawned", workers=spawned,
                         fleet=len(self._processes))
        return spawned

    # ------------------------------------------------------------------ query
    def owns(self, worker_id: str) -> bool:
        return worker_id in self._processes

    def owned_ids(self) -> List[str]:
        """Every tracked (spawned, not yet reaped) worker id."""
        return sorted(self._processes)

    def alive_ids(self) -> List[str]:
        return sorted(worker_id for worker_id, process
                      in self._processes.items() if process.is_alive())

    def alive_count(self) -> int:
        return len(self.alive_ids())

    # ------------------------------------------------------------------ retire
    def signal(self, worker_ids: Iterable[str]) -> List[str]:
        """SIGTERM the given owned workers (graceful drain in the worker loop)."""
        signalled: List[str] = []
        for worker_id in worker_ids:
            process = self._processes.get(worker_id)
            if process is not None and process.is_alive():
                process.terminate()
                signalled.append(worker_id)
        return signalled

    def reap(self) -> List[Tuple[str, Optional[int], float]]:
        """Collect exited workers; ``(worker_id, exitcode, lifetime_s)`` each.

        Call every poll: it joins finished processes (no zombies) and its
        return value is the autoscaler's source for worker-lifetime
        metrics and ``worker_exit`` events.
        """
        reaped: List[Tuple[str, Optional[int], float]] = []
        for worker_id in list(self._processes):
            process = self._processes[worker_id]
            if process.is_alive():
                continue
            process.join(timeout=0.1)
            lifetime = time.monotonic() - self._spawned_at.pop(worker_id)
            del self._processes[worker_id]
            reaped.append((worker_id, process.exitcode, lifetime))
            _LOGGER.info("worker reaped", worker=worker_id,
                         exitcode=process.exitcode,
                         lifetime=f"{lifetime:.1f}s")
        return reaped

    def stop_all(self, *, timeout: float = 5.0, natural_grace: float = 2.0
                 ) -> List[Tuple[str, Optional[int], float]]:
        """Retire every remaining worker, gentlest first.

        Workers already on their way out — the broker replied ``SHUTDOWN``
        or ``DRAIN``, or they are still in spawn-context interpreter
        start-up and about to discover the sweep is over — get
        ``natural_grace`` seconds to exit on their own before any signal
        is sent: a SIGTERM racing start-up or teardown kills the process
        un-gracefully (exitcode ``-15``) even though no work is lost.
        Stragglers are then SIGTERMed (which the worker loop turns into a
        graceful drain) and killed only if they ignore that too.
        """
        grace_deadline = time.monotonic() + max(0.0, natural_grace)
        while self.alive_ids() and time.monotonic() < grace_deadline:
            time.sleep(0.05)
        self.signal(self.alive_ids())
        deadline = time.monotonic() + max(0.0, timeout)
        for process in self._processes.values():
            process.join(timeout=max(0.1, deadline - time.monotonic()))
        for worker_id, process in self._processes.items():
            if process.is_alive():   # pragma: no cover - stuck worker
                _LOGGER.warning("worker ignored SIGTERM; killing",
                                worker=worker_id)
                process.kill()
                process.join(timeout=1.0)
        return self.reap()


__all__ = ["WorkerSupervisor"]
