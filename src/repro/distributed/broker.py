"""The sweep broker: a TCP work queue serving ``SweepTask``s to workers.

``SweepBroker`` owns the full task grid of one sweep and hands tasks out to
any number of connected workers (local processes auto-spawned by the
coordinator, or remote ``python -m repro worker --connect`` loops).  Its
job is to make the fleet *safe to lose*:

* **Leases, not handoffs** — a task given to a worker stays on the books
  with a deadline.  Heartbeats (and any other frame from that worker)
  extend the deadline; a worker that dies mid-trial (connection drop) or
  silently hangs (deadline expiry) gets its leased tasks requeued for the
  next ``GET``, so a killed worker costs wall time, never results.
* **Exactly-once results** — the first ``RESULT`` frame for a task index
  wins; late duplicates (a requeued task finishing twice, a retrying
  worker) are acknowledged but dropped, and counted in
  :attr:`SweepBroker.duplicate_results` so tests can assert the dedup
  actually happened.
* **Per-trial checkpointing** — with an :class:`~repro.api.store.ArtifactStore`
  attached, every result is persisted the moment it arrives, not when the
  sweep ends.  An interrupted paper-scale sweep therefore resumes from its
  last completed trial on the next run (the engine's cache pass skips
  stored trials before they ever reach the broker).

Determinism: the broker never reorders computation — each task is executed
by exactly one ``Trainer().fit`` call inside some worker, identical to the
serial backend's loop — so distributed results replay serial results
bit-for-bit on fixed seeds regardless of which worker ran what, in what
order, or how many times a lease bounced.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import telemetry
from repro.distributed import protocol
from repro.distributed.journal import SweepJournal, task_journal_key
from repro.parallel.sweep import SweepTask
from repro.training.records import TrainingResult
from repro.utils.logging import get_logger

_LOGGER = get_logger("repro.distributed.broker")

#: Seconds a worker is told to sleep when every remaining task is leased out.
WAIT_HINT_SECONDS = 0.05


class _Lease:
    """One task currently out with a worker.

    ``owner`` is the identity of the holding connection (its ``held`` set),
    so that after an expired lease is re-issued to another worker, frames
    from the original holder — a late result, a disconnect — can be told
    apart from the current holder's and never touch the live lease.
    """

    __slots__ = ("index", "worker_id", "deadline", "owner", "leased_at")

    def __init__(self, index: int, worker_id: str, deadline: float,
                 owner: Set[int], leased_at: float) -> None:
        self.index = index
        self.worker_id = worker_id
        self.deadline = deadline
        self.owner = owner
        self.leased_at = leased_at


class SweepBroker:
    """Serve one sweep's tasks over TCP and collect the results.

    Parameters
    ----------
    tasks:
        The sweep grid, in result order.  An empty grid is legal: the broker
        is born finished and :meth:`join` returns immediately.
    host, port:
        Bind address.  The default binds loopback on an ephemeral port (the
        bound port is available as :attr:`address` after :meth:`start`);
        bind a routable interface only on networks you trust — the wire
        format is pickle (see :mod:`repro.distributed.protocol`).
    store:
        Optional artifact store; results are checkpointed into it as they
        arrive (see the module docstring).
    heartbeat_timeout:
        Seconds without any frame from a worker before its leases are
        requeued.  Workers heartbeat at a fraction of this (the coordinator
        configures both ends consistently).
    callback:
        ``callback(task, result)`` streamed as each *fresh* result lands,
        mirroring :meth:`SweepRunner.run`'s callback contract.
    lease_batch:
        Tasks leased per worker ``GET``.  The broker answers a request
        with one ``TASKS`` frame carrying up to
        ``min(lease_batch, capacity)`` tasks, where ``capacity`` is the
        positive int the ``GET`` carries; with k > 1 remote workers
        amortize a connection round trip over k trials on paper-scale
        grids.  Leases, heartbeat extension, requeue-on-death and result
        dedup are per *task* — a worker dying mid-batch requeues only its
        unfinished tasks.
    max_frame_bytes:
        Per-frame size ceiling enforced on every worker frame *before*
        allocation (default: :func:`~repro.distributed.protocol.
        default_max_frame_bytes`).  A peer announcing an oversized frame is
        disconnected with a :class:`ProtocolError` instead of being allowed
        to allocate the broker into the ground.
    journal:
        A :class:`~repro.distributed.journal.SweepJournal` (or a path to
        one) making this broker crash-safe: queue transitions are appended
        and fsync'd (deliveries *before* the ACK leaves), and an existing
        journal is replayed on construction — completed tasks restored as
        done, everything else (including leases in flight at the kill)
        back on the pending queue.  ``None`` (the default) keeps the
        classic in-memory broker, byte-for-byte.
    fault_plan:
        Test/CI hook (:class:`~repro.chaos.FaultPlan`): every accepted
        connection is wrapped so the plan can drop/truncate/delay frames
        on the broker side of the wire.  Never set in production paths.
    """

    def __init__(self, tasks: Sequence[SweepTask], *, host: str = "127.0.0.1",
                 port: int = 0, store: Optional[object] = None,
                 heartbeat_timeout: float = 30.0,
                 callback: Optional[Callable[[SweepTask, TrainingResult], None]] = None,
                 lease_batch: int = 1,
                 max_frame_bytes: Optional[int] = None,
                 journal: Optional[Union[SweepJournal, str, Path]] = None,
                 fault_plan: Optional[object] = None) -> None:
        if heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        if lease_batch < 1:
            raise ValueError("lease_batch must be >= 1")
        self.tasks: List[SweepTask] = list(tasks)
        self.store = store
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.callback = callback
        self.lease_batch = int(lease_batch)
        self.max_frame_bytes = max_frame_bytes
        self._bind_host = host
        self._bind_port = port
        self._fault_plan = fault_plan
        if journal is None or isinstance(journal, SweepJournal):
            self.journal: Optional[SweepJournal] = journal
        else:
            self.journal = SweepJournal(journal)

        self._lock = threading.Lock()
        self._pending: deque = deque(range(len(self.tasks)))
        self._leases: Dict[int, _Lease] = {}
        self._results: Dict[int, Tuple[TrainingResult, str]] = {}
        self._all_done = threading.Event()
        if not self.tasks:
            self._all_done.set()

        #: Observability counters (read under no lock; monotonic, test-facing).
        self.duplicate_results = 0
        self.requeued_tasks = 0
        self.wait_replies = 0
        #: Crash-safety accounting: results restored from the journal
        #: at construction, and HELLOs from worker ids the broker already
        #: knew (a worker that reconnected instead of dying).
        self.journal_replayed_results = 0
        self.worker_reconnections = 0
        #: Drain accounting: how many workers were marked for drain,
        #: how many closed their connection with no live lease (a *graceful*
        #: drain), and how many tasks had to be requeued from a draining
        #: worker anyway (dying mid-drain) — the elastic-fleet contract is
        #: that this last counter stays 0 under any scaling schedule.
        self.drains_requested = 0
        self.drains_completed = 0
        self.drain_requeued_tasks = 0
        #: Seconds each completed drain took (marked -> clean disconnect).
        self.drain_durations: List[float] = []
        self.workers_seen: Set[str] = set()
        #: Currently connected worker connections (registered or not) — lets
        #: the coordinator distinguish "fleet crashed" from "externals serving".
        self.active_connections = 0
        #: Per-worker liveness/accounting behind the STATS channel:
        #: ``worker_id -> {connected, last_seen (monotonic), completed}``.
        #: Observer connections (``repro fleet status``) never appear here.
        self._workers: Dict[str, Dict[str, object]] = {}
        #: Workers marked for drain: ``worker_id -> monotonic mark time``.
        #: Marked workers get a ``DRAIN`` reply to their next ``GET``
        #: instead of new leases.
        self._draining: Dict[str, float] = {}

        self._server: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._closing = threading.Event()

        #: ``task index -> journal key`` (the store's content address);
        #: computed only when journaling, so the journal-less broker never
        #: pays for key derivation.
        self._journal_keys: List[str] = []
        if self.journal is not None:
            self._restore_from_journal()
            self.journal.open(tasks=len(self.tasks), done=len(self._results))

    def _restore_from_journal(self) -> None:
        """Replay an existing journal into the queue state (pre-``start``).

        Delivered tasks are restored as done (and checkpointed into the
        attached store, so a restart pointed at a *fresh* store still ends
        complete); every other index — pending or leased at the kill —
        lands back on the pending queue, which the fresh ``_pending``
        built above already encodes.  Keys that match no task (a journal
        from another spec or repro version) are ignored: they can stall a
        resume into retraining, never corrupt it.
        """
        replay = self.journal.load()
        self._journal_keys = [task_journal_key(task) for task in self.tasks]
        if replay.delivered:
            index_of = {key: index
                        for index, key in enumerate(self._journal_keys)}
            for key, (result, backend_used) in replay.results.items():
                index = index_of.get(key)
                if index is None or index in self._results:
                    continue
                self._results[index] = (result, backend_used)
                self.journal_replayed_results += 1
                if self.store is not None:
                    self.store.save_trial(self.tasks[index], result,
                                          backend_used=backend_used)
        if self.journal_replayed_results:
            self._pending = deque(index for index in range(len(self.tasks))
                                  if index not in self._results)
            telemetry.count("broker.journal_replayed",
                            self.journal_replayed_results)
            _LOGGER.info("journal replayed", path=str(self.journal.path),
                         restored=self.journal_replayed_results,
                         sessions=replay.sessions,
                         remaining=len(self._pending))
        if self.tasks and len(self._results) == len(self.tasks):
            self._all_done.set()

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> "SweepBroker":
        """Bind, listen and start the accept + lease-monitor threads."""
        if self._server is not None:
            raise RuntimeError("broker already started")
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self._bind_host, self._bind_port))
        server.listen()
        server.settimeout(0.2)
        self._server = server
        for target, name in ((self._accept_loop, "broker-accept"),
                             (self._monitor_loop, "broker-monitor")):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        _LOGGER.info("broker listening", address="%s:%d" % self.address,
                     tasks=len(self.tasks))
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("broker not started")
        return self._server.getsockname()[:2]

    @property
    def completed_count(self) -> int:
        with self._lock:
            return len(self._results)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block until every task has a result; True if that happened."""
        return self._all_done.wait(timeout)

    def results(self) -> List[Tuple[TrainingResult, str]]:
        """The collected ``(result, backend_used)`` pairs in task order."""
        with self._lock:
            missing = len(self.tasks) - len(self._results)
            if missing:
                raise RuntimeError(f"sweep incomplete: {missing} of "
                                   f"{len(self.tasks)} tasks have no result")
            return [self._results[index] for index in range(len(self.tasks))]

    def close(self) -> None:
        """Stop accepting, drop connections, release the port (idempotent)."""
        self._closing.set()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "SweepBroker":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ threads
    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                connection, _ = self._server.accept()
            except socket.timeout:
                continue
            except OSError:  # socket closed under us
                return
            if self._fault_plan is not None:
                connection = self._fault_plan.wrap(connection)
            thread = threading.Thread(target=self._serve_worker,
                                      args=(connection,), daemon=True,
                                      name="broker-conn")
            thread.start()
            self._threads.append(thread)

    def _monitor_loop(self) -> None:
        """Requeue tasks whose lease deadline passed (hung/silent workers)."""
        interval = min(0.2, self.heartbeat_timeout / 4.0)
        while not self._closing.is_set():
            now = time.monotonic()
            with self._lock:
                expired = [lease for lease in self._leases.values()
                           if lease.deadline <= now]
                for lease in expired:
                    del self._leases[lease.index]
                    lease.owner.discard(lease.index)   # holder forfeits it
                    self._pending.append(lease.index)
                    self.requeued_tasks += 1
                    if lease.worker_id in self._draining:
                        self.drain_requeued_tasks += 1
            for lease in expired:
                _LOGGER.warning("lease expired; task requeued",
                                task=lease.index, worker=lease.worker_id)
            if expired and self.journal is not None and self.journal.is_open:
                by_worker: Dict[str, List[str]] = {}
                for lease in expired:
                    by_worker.setdefault(lease.worker_id, []).append(
                        self._journal_keys[lease.index])
                for owner, keys in by_worker.items():
                    self.journal.record_requeue(keys, owner,
                                                reason="lease_expired")
            self._closing.wait(interval)

    # ------------------------------------------------------------------ protocol
    def _serve_worker(self, connection: socket.socket) -> None:
        """Per-connection loop: handshake, then answer GET/RESULT, absorb heartbeats."""
        worker_id = "<unregistered>"
        held: Set[int] = set()          # leases owned by this connection
        with self._lock:
            self.active_connections += 1
        try:
            with connection:
                try:
                    worker_id = self._handshake(connection)
                    is_observer = worker_id.startswith(protocol.OBSERVER_PREFIX)
                    if not is_observer:
                        self._register(worker_id)
                    while not self._closing.is_set():
                        kind, payload = protocol.recv_message(
                            connection, max_frame_bytes=self.max_frame_bytes)
                        if not is_observer:
                            self._workers[worker_id]["last_seen"] = time.monotonic()
                        self._dispatch(connection, worker_id, held, kind, payload)
                except protocol.ProtocolError as error:
                    _LOGGER.warning("peer violated the protocol; disconnecting",
                                    worker=worker_id, error=str(error))
                except (ConnectionError, OSError):
                    pass
        finally:
            with self._lock:
                self.active_connections -= 1
                info = self._workers.get(worker_id)
                if info is not None:
                    info["connected"] = False
            requeued = self._requeue_held(held, worker_id)
            self._finish_drain(worker_id, requeued)

    def _handshake(self, connection: socket.socket) -> str:
        """Answer the opening ``HELLO``; anything else is refused with ``ERROR``."""
        kind, payload = protocol.recv_message(
            connection, max_frame_bytes=self.max_frame_bytes)
        try:
            if kind != protocol.HELLO:
                raise protocol.ProtocolError(f"expected HELLO, got {kind!r}")
            worker_id = protocol.accept_hello(payload)
        except protocol.ProtocolError as error:
            protocol.send_message(connection, protocol.ERROR, str(error))
            raise
        protocol.send_message(connection, protocol.WELCOME,
                              protocol.welcome_info(tasks=len(self.tasks)))
        return worker_id

    def _register(self, worker_id: str) -> None:
        """Enter a worker in the accounting; a known id is a reconnection."""
        with self._lock:
            info = self._workers.get(worker_id)
            self.workers_seen.add(worker_id)
            if info is None:
                self._workers[worker_id] = {"connected": True,
                                            "last_seen": time.monotonic(),
                                            "completed": 0}
                return
            # Keep its completed count so fleet stats reconcile across the gap.
            info["connected"] = True
            info["last_seen"] = time.monotonic()
            self.worker_reconnections += 1
        _LOGGER.info("worker reconnected", worker=worker_id)

    def _dispatch(self, connection: socket.socket, worker_id: str,
                  held: Set[int], kind: str, payload: object) -> None:
        if kind == protocol.HEARTBEAT:
            self._extend_leases(held)
        elif kind == protocol.GET:
            self._handle_get(connection, worker_id, held, payload)
        elif kind == protocol.RESULT:
            self._handle_result(connection, payload, held, worker_id)
        elif kind == protocol.STATS:
            protocol.send_message(connection, protocol.STATS,
                                  self.stats_snapshot())
        elif kind == protocol.DRAIN:
            if isinstance(payload, (list, tuple, set)):
                # Control form (observer/autoscaler): mark the listed
                # workers for retirement and report back.
                protocol.send_message(connection, protocol.DRAIN,
                                      self.mark_draining(list(payload)))
            else:
                # A worker announcing a self-initiated drain (SIGTERM
                # landed): unsolicited, no reply — the worker may disconnect
                # right after sending it.
                self.mark_draining([worker_id])
        else:
            raise protocol.ProtocolError(f"unexpected frame {kind!r} from worker")

    def _handle_get(self, connection: socket.socket, worker_id: str,
                    held: Set[int], capacity: object) -> None:
        # `capacity` is the worker's max lease batch; sockets are untrusted
        # input, so anything but a positive int is a protocol violation.
        if type(capacity) is not int or capacity < 1:
            raise protocol.ProtocolError(
                f"GET capacity must be a positive int, got {capacity!r}")
        batch = min(self.lease_batch, capacity)
        leased: List[Tuple[int, SweepTask]] = []
        with self._lock:
            if len(self._results) == len(self.tasks):
                reply = (protocol.SHUTDOWN, None)
            elif worker_id in self._draining:
                # Marked for retirement: no new leases.  The worker delivered
                # every in-flight result before this GET (batch boundary), so
                # it disconnects holding nothing — a graceful drain.
                reply = (protocol.DRAIN, None)
            elif self._pending:
                now = time.monotonic()
                deadline = now + self.heartbeat_timeout
                while self._pending and len(leased) < batch:
                    index = self._pending.popleft()
                    self._leases[index] = _Lease(index, worker_id, deadline,
                                                 held, now)
                    held.add(index)
                    leased.append((index, self.tasks[index]))
                reply = (protocol.TASKS, leased)
            else:
                reply = (protocol.WAIT, WAIT_HINT_SECONDS)
                self.wait_replies += 1
        if leased and self.journal is not None:
            # Audit, not durability: the fsync happens outside the queue
            # lock so concurrent GETs don't serialize on the disk.
            self.journal.record_lease(
                [self._journal_keys[index] for index, _ in leased], worker_id)
        protocol.send_message(connection, *reply)

    def _handle_result(self, connection: socket.socket, payload, held: Set[int],
                       worker_id: str = "<unregistered>") -> None:
        index, result, backend_used = payload
        fresh = False
        task: Optional[SweepTask] = None
        with self._lock:
            if not (0 <= index < len(self.tasks)):
                raise protocol.ProtocolError(f"result for unknown task {index}")
            lease = self._leases.get(index)
            if lease is not None and lease.owner is held:
                del self._leases[index]       # never someone else's re-issued lease
            held.discard(index)
            if index in self._results:
                self.duplicate_results += 1
            else:
                fresh = True
                self._results[index] = (result, backend_used)
                task = self.tasks[index]
                # The lease may have expired and bounced the index back onto
                # the queue before this (still valid) result arrived; drop
                # the requeued copy so nobody retrains a finished trial.
                try:
                    self._pending.remove(index)
                except ValueError:
                    pass
                info = self._workers.get(worker_id)
                if info is not None:
                    info["completed"] = int(info["completed"]) + 1
                if len(self._results) == len(self.tasks):
                    self._all_done.set()
            self._extend_leases_locked(held)
        if fresh:
            if self.journal is not None:
                # Durability point: the deliver record is fsync'd *before*
                # the ACK below, so any result a worker saw acknowledged is
                # recoverable after a broker SIGKILL.
                self.journal.record_deliver(self._journal_keys[index],
                                            result, backend_used)
            if self.store is not None:
                self.store.save_trial(task, result, backend_used=backend_used)
            if self.callback is not None:
                self.callback(task, result)
            _LOGGER.info("trial complete", task=index,
                         done=f"{self.completed_count}/{len(self.tasks)}")
        protocol.send_message(connection, protocol.ACK, fresh)

    # ------------------------------------------------------------------ drain
    def mark_draining(self, worker_ids: Sequence[str]) -> Dict[str, List[str]]:
        """Mark workers for graceful retirement; returns what happened.

        A marked worker stops receiving leases: its next ``GET`` is answered
        with a ``DRAIN`` frame and it disconnects once its in-flight results
        are delivered.  Ids that are unknown, already draining, or belong to
        an already-disconnected worker are reported rather than silently
        dropped, so the autoscaler can tell a drain that will happen from one
        that cannot.
        """
        marked: List[str] = []
        unknown: List[str] = []
        already: List[str] = []
        gone: List[str] = []
        now = time.monotonic()
        with self._lock:
            for worker_id in worker_ids:
                worker_id = str(worker_id)
                info = self._workers.get(worker_id)
                if worker_id in self._draining:
                    already.append(worker_id)
                elif info is None:
                    unknown.append(worker_id)
                elif not info["connected"]:
                    gone.append(worker_id)
                else:
                    self._draining[worker_id] = now
                    self.drains_requested += 1
                    marked.append(worker_id)
        for worker_id in marked:
            _LOGGER.info("worker marked for drain", worker=worker_id)
        if marked and self.journal is not None and self.journal.is_open:
            self.journal.record_drain(marked)
        return {"marked": marked, "already_draining": already,
                "unknown": unknown, "gone": gone}

    def draining_workers(self) -> List[str]:
        """Worker ids currently marked for drain (mark cleared on disconnect)."""
        with self._lock:
            return sorted(self._draining)

    def _finish_drain(self, worker_id: str, requeued: int) -> None:
        """A connection closed: settle its drain mark, if it carried one.

        Zero requeued leases at disconnect means the worker delivered
        everything it held — the drain was graceful and its duration is
        recorded.  Requeued leases mean the draining worker died mid-task;
        those requeues are additionally counted in ``drain_requeued_tasks``
        (the counter the elastic-fleet tests pin to zero).
        """
        with self._lock:
            started = self._draining.pop(worker_id, None)
            if started is None:
                return
            if requeued:
                self.drain_requeued_tasks += requeued
            else:
                self.drains_completed += 1
                self.drain_durations.append(time.monotonic() - started)
        if requeued:
            _LOGGER.warning("draining worker died holding leases",
                            worker=worker_id, requeued=requeued)
        else:
            _LOGGER.info("worker drained gracefully", worker=worker_id)

    # ------------------------------------------------------------------ stats
    def stats_snapshot(self) -> Dict[str, object]:
        """JSON-ready fleet snapshot served on the ``STATS`` channel.

        Task counts are reconciled against the result set so that
        ``queued + leased + done == total`` always holds: during the short
        window where a finished index still sits on the pending queue (late
        result after a lease expiry) or under a re-issued lease (duplicate
        delivery in flight), the completed state wins.
        """
        now = time.monotonic()
        with self._lock:
            done = len(self._results)
            queued = sum(1 for index in self._pending
                         if index not in self._results)
            live_leases = [lease for lease in self._leases.values()
                           if lease.index not in self._results]
            workers: Dict[str, Dict[str, object]] = {}
            for worker_id, info in self._workers.items():
                workers[worker_id] = {
                    "connected": bool(info["connected"]),
                    "draining": worker_id in self._draining,
                    "last_seen_seconds_ago": round(
                        now - float(info["last_seen"]), 3),
                    "completed": int(info["completed"]),
                    "leases": 0,
                    "oldest_lease_age": 0.0,
                }
            for lease in live_leases:
                row = workers.get(lease.worker_id)
                if row is None:
                    continue
                row["leases"] = int(row["leases"]) + 1
                age = round(now - lease.leased_at, 3)
                if age > float(row["oldest_lease_age"]):
                    row["oldest_lease_age"] = age
            snapshot: Dict[str, object] = {
                "tasks": {
                    "total": len(self.tasks),
                    "queued": queued,
                    "leased": len(live_leases),
                    "done": done,
                },
                "counters": {
                    "requeued_tasks": self.requeued_tasks,
                    "duplicate_results": self.duplicate_results,
                    "wait_replies": self.wait_replies,
                    "workers_seen": len(self.workers_seen),
                    "active_connections": self.active_connections,
                    "drains_requested": self.drains_requested,
                    "drains_completed": self.drains_completed,
                    "drain_requeued_tasks": self.drain_requeued_tasks,
                    "journal_replayed": self.journal_replayed_results,
                    "worker_reconnections": self.worker_reconnections,
                },
                "drain_seconds": [round(s, 3) for s in self.drain_durations],
                "workers": workers,
                "lease_batch": self.lease_batch,
                "heartbeat_timeout": self.heartbeat_timeout,
            }
        from repro import __version__

        snapshot["repro_version"] = __version__
        snapshot["transport"] = protocol.transport_counters().snapshot()
        return snapshot

    # ------------------------------------------------------------------ leases
    def _extend_leases(self, held: Set[int]) -> None:
        with self._lock:
            self._extend_leases_locked(held)

    def _extend_leases_locked(self, held: Set[int]) -> None:
        deadline = time.monotonic() + self.heartbeat_timeout
        for index in held:
            lease = self._leases.get(index)
            if lease is not None and lease.owner is held:
                lease.deadline = deadline

    def _requeue_held(self, held: Set[int], worker_id: str) -> int:
        """Connection gone: put its unfinished leases back on the queue.

        Only leases this connection still *owns* are requeued — an index
        whose lease expired and was re-issued to another worker must not be
        yanked from under the new holder, and a completed index must not be
        retrained.  Returns the number of requeued leases so the drain
        accounting can tell a graceful disconnect from a mid-task death.
        """
        with self._lock:
            requeued = []
            for index in held:
                lease = self._leases.get(index)
                if lease is not None and lease.owner is held:
                    del self._leases[index]
                    self._pending.append(index)
                    self.requeued_tasks += 1
                    requeued.append(index)
        for index in requeued:
            _LOGGER.warning("worker disconnected; task requeued",
                            task=index, worker=worker_id)
        if requeued and self.journal is not None and self.journal.is_open:
            self.journal.record_requeue(
                [self._journal_keys[index] for index in requeued],
                worker_id, reason="disconnect")
        return len(requeued)


__all__ = ["SweepBroker", "WAIT_HINT_SECONDS"]
