"""The worker side of the distributed sweep backend.

``run_worker`` is what ``python -m repro worker --connect HOST:PORT``
executes: connect to a :class:`~repro.distributed.broker.SweepBroker`, pull
:class:`~repro.parallel.sweep.SweepTask`s one at a time, run each through
the *exact* serial trainer code path
(:func:`repro.parallel.sweep._run_sweep_task` -> ``Trainer().fit``), and
stream the :class:`~repro.training.records.TrainingResult` back.  Because the
computation per task is identical to the serial backend, a distributed
sweep replays a serial sweep bit-for-bit on fixed seeds — the worker adds
transport, never arithmetic.

While a trial is training, a daemon thread sends ``HEARTBEAT`` frames so
the broker keeps the lease alive through arbitrarily long trials; if this
process dies instead, the dropped connection (or, for a hang, the lease
timeout) makes the broker requeue the task for another worker.

Every connection opens with the version-checked handshake
(:func:`repro.distributed.protocol.hello`).  A broker running another
version refuses it, and the worker ends with that error instead of
reconnecting: retrying cannot change the broker's code.

Graceful retirement: the worker installs SIGTERM/SIGINT handlers (main
thread only) that request a *drain* instead of killing the process — the
in-flight lease batch finishes, every result is delivered and acked, the
broker is told ``DRAIN``, and only then does the loop exit.  A second
signal skips the grace and dies immediately (the broker's lease requeue
covers the abandoned task).  The broker can also retire the worker from
its side: a ``DRAIN`` reply to ``GET`` makes the loop exit at the same
clean batch boundary.  Either way, retiring a worker loses no leases: this
is the actuation primitive of :class:`repro.fleet.FleetAutoscaler`.

Reconnect: with ``WorkerOptions(reconnect=RetryPolicy(...))`` a
lost broker connection no longer ends the worker — it backs off on the
policy's deterministic schedule, reconnects, sends ``HELLO`` again under
the *same* worker id (so broker accounting reconciles the gap as a
reconnection, not a new worker), redelivers any result it computed during
the outage (the broker's dedup absorbs the copy if the original landed),
and resumes pulling tasks.  A result lost mid-``RESULT`` is therefore
never lost twice: either the broker journaled/acked it, or the requeued
lease is retrained — both converge on the same bits.  Without a policy
(the default, and what the coordinator's auto-spawned fleets use) broker
gone means the worker's job is done.

Workers may attach their own :class:`~repro.api.store.ArtifactStore`
(``repro worker --store DIR``).  A store-equipped worker answers tasks it
has already trained from cache and checkpoints fresh results locally, so a
worker fleet sharing a filesystem converges even across broker restarts.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro import telemetry
from repro.distributed import protocol
from repro.parallel.sweep import SweepTask, _run_sweep_task
from repro.training.records import TrainingResult
from repro.utils.logging import get_logger
from repro.utils.retry import RetryPolicy

_LOGGER = get_logger("repro.distributed.worker")

#: ``backend_used`` recorded for trials executed by the worker fleet.
DISTRIBUTED_BACKEND = "distributed"

#: Max lease batch this worker advertises in every ``GET`` payload; the
#: broker caps batches at min(its lease_batch, this).
LEASE_CAPACITY = 1024


@dataclass(frozen=True)
class WorkerOptions:
    """Knobs of one worker loop (all optional; defaults suit the CLI)."""

    worker_id: Optional[str] = None      #: default: ``<hostname>-<pid>-<uuid4[:8]>``
    store_root: Optional[str] = None     #: local artifact cache (resume + checkpoint)
    heartbeat_interval: float = 2.0      #: seconds between keep-alive frames mid-trial
    max_tasks: Optional[int] = None      #: stop after N trials (tests/failure injection)
    connect_timeout: float = 10.0        #: seconds to wait for the broker socket
    handle_signals: bool = True          #: SIGTERM/SIGINT -> graceful drain (main thread only)
    drain_event: Optional[threading.Event] = field(default=None, compare=False)
    """Optional externally-owned drain trigger (tests drive in-thread workers
    with it; the CLI leaves it ``None`` and relies on the signal handlers)."""
    reconnect: Optional[RetryPolicy] = None
    """Survive broker outages: back off on this policy's schedule and
    re-``HELLO`` under the same worker id instead of exiting.  Each outage
    gets a fresh policy run (the attempt cap / deadline bounds *one*
    outage, not the worker's lifetime); a policy exhausted mid-outage
    raises :class:`~repro.utils.retry.RetryError`.  ``None`` exits on
    the first disconnect."""
    idle_timeout: Optional[float] = 60.0
    """Seconds to wait for any single broker reply before declaring the
    connection dead (half-open TCP to a SIGKILLed broker otherwise hangs
    the worker forever).  Generous on purpose: the broker answers every
    frame promptly — only trial *training* takes long, and the worker
    never blocks on the socket during training.  ``None`` waits without
    bound."""
    connect_factory: Optional[Callable[[str, int, Optional[float]], socket.socket]] = (
        field(default=None, compare=False))
    """Socket factory ``(host, port, timeout) -> socket`` replacing
    ``socket.create_connection`` — the fault-injection seam
    (:meth:`repro.chaos.FaultPlan.connect` plugs in here)."""


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


def _install_drain_handlers(drain: threading.Event,
                            worker_id: str) -> List[Tuple[int, object]]:
    """SIGTERM/SIGINT -> set ``drain``; a second signal dies immediately.

    Signal handlers can only live in the main thread — from anywhere else
    (tests running ``run_worker`` in a thread) this is a no-op.  Returns the
    ``(signum, previous_handler)`` pairs so the caller can restore them.
    """
    if threading.current_thread() is not threading.main_thread():
        return []

    def handler(signum, frame):
        if drain.is_set():
            # Second signal: the operator means it.  Die now; the broker's
            # lease requeue covers whatever was in flight.
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        drain.set()
        _LOGGER.info("signal received; draining", worker=worker_id,
                     signum=signum)

    previous: List[Tuple[int, object]] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous.append((signum, signal.signal(signum, handler)))
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            continue
    return previous


def execute_task(task: SweepTask, store=None) -> Tuple[TrainingResult, bool]:
    """Run one task through the serial trainer; ``(result, was_cached)``.

    With a store attached the trial is answered from cache when present and
    checkpointed into the store when freshly trained.
    """
    if store is not None:
        cached = store.load_trial(task)
        if cached is not None:
            return cached[0], True
    result = _run_sweep_task(task)
    if store is not None:
        store.save_trial(task, result, backend_used=DISTRIBUTED_BACKEND)
    return result, False


class _WorkerState:
    """What survives across one worker's broker connections."""

    __slots__ = ("completed", "undelivered", "reconnects")

    def __init__(self) -> None:
        self.completed = 0
        #: Results computed but not yet acked when a connection died:
        #: ``(task index, result, backend)``.  Flushed first thing after
        #: every reconnect; the broker's dedup absorbs any copy whose
        #: original RESULT actually landed before the cut.
        self.undelivered: List[Tuple[int, TrainingResult, str]] = []
        self.reconnects = 0


def run_worker(host: str, port: int,
               options: WorkerOptions = WorkerOptions()) -> int:
    """Serve one broker until ``SHUTDOWN``/``DRAIN``; returns tasks completed.

    With ``options.reconnect`` set, a lost connection (including a failed
    initial connect) is retried on the policy's backoff schedule instead of
    ending the worker; see the module docstring for the redelivery
    semantics.  An exhausted policy raises
    :class:`~repro.utils.retry.RetryError`; a broker running another
    version raises :class:`~repro.distributed.protocol.VersionMismatchError`
    without any retry.
    """
    worker_id = options.worker_id or default_worker_id()
    drain = options.drain_event if options.drain_event is not None else threading.Event()
    restore = (_install_drain_handlers(drain, worker_id)
               if options.handle_signals else [])

    def connect() -> socket.socket:
        if options.connect_factory is not None:
            return options.connect_factory(host, port, options.connect_timeout)
        return socket.create_connection((host, port),
                                        timeout=options.connect_timeout)

    def on_retry(attempt: int, delay: float, error: BaseException) -> None:
        _LOGGER.warning("broker unreachable; backing off", worker=worker_id,
                        attempt=attempt, delay=round(delay, 3), error=str(error))

    state = _WorkerState()
    store = None
    if options.store_root is not None:
        from repro.api.store import ArtifactStore   # deferred: avoids an import cycle

        store = ArtifactStore(options.store_root)
    sessions = 0
    clock = None      # live only while one outage is being retried
    try:
        while not drain.is_set():
            try:
                sock = connect()
            except (ConnectionError, OSError) as error:
                if options.reconnect is None:
                    raise
                if clock is None:
                    clock = options.reconnect.clock()
                clock.failed(error, on_retry=on_retry)   # sleeps or raises
                continue
            outcome = _serve_connection(sock, worker_id, store, drain,
                                        options, state)
            if outcome.handshook:
                sessions += 1
                if sessions > 1:
                    state.reconnects += 1
                    telemetry.count("distributed.worker.reconnections")
                    _LOGGER.info("worker reconnected", worker=worker_id,
                                 session=sessions)
                clock = None    # productive session: next outage starts fresh
            if outcome.kind != "lost":
                break
            if options.reconnect is None:
                # The broker is gone — sweep finished (it tears the port
                # down as soon as the grid drains) or it died; either way
                # the worker's job here is over.
                _LOGGER.info("broker connection closed", worker=worker_id)
                break
            if not outcome.handshook:
                # Connected but died before WELCOME: burns retry budget like
                # a failed connect, or a flapping broker would spin us hot.
                if clock is None:
                    clock = options.reconnect.clock()
                clock.failed(outcome.error, on_retry=on_retry)
            _LOGGER.warning("broker connection lost; reconnecting",
                            worker=worker_id,
                            undelivered=len(state.undelivered))
    finally:
        for signum, previous in restore:
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError, TypeError):  # pragma: no cover
                pass
    _LOGGER.info("worker exiting", worker=worker_id,
                 completed=state.completed, reconnects=state.reconnects)
    return state.completed


class _ConnectionOutcome:
    """Why one broker connection ended."""

    __slots__ = ("kind", "handshook", "error")

    def __init__(self, kind: str, handshook: bool,
                 error: Optional[BaseException] = None) -> None:
        self.kind = kind            # "lost" | "shutdown" | "drain" | "max_tasks"
        self.handshook = handshook  # WELCOME received on this connection
        self.error = error


def _serve_connection(sock: socket.socket, worker_id: str, store,
                      drain: threading.Event, options: WorkerOptions,
                      state: _WorkerState) -> _ConnectionOutcome:
    """One connection's HELLO -> GET/RESULT loop; never raises transport errors."""
    send_lock = threading.Lock()

    def send(kind: str, payload=None) -> None:
        with send_lock:
            protocol.send_message(sock, kind, payload)

    def announce_drain() -> None:
        # Tell the broker this disconnect is deliberate — it retires the
        # worker as a *graceful* drain instead of a death.
        telemetry.count("distributed.worker.drains")
        try:
            send(protocol.DRAIN)
        except (ConnectionError, OSError):
            pass

    def deliver(index: int, result: TrainingResult, backend: str) -> bool:
        """RESULT -> ACK for one trial; returns the broker's ``fresh`` flag."""
        send(protocol.RESULT, (index, result, backend))
        kind, fresh = protocol.recv_message(sock)
        if kind != protocol.ACK:
            raise protocol.ProtocolError(f"expected ACK, got {kind!r}")
        state.completed += 1
        telemetry.count("distributed.worker.tasks_completed")
        if not fresh:
            telemetry.count("distributed.worker.duplicate_acks")
        return bool(fresh)

    try:
        # The broker answers every frame promptly (training happens on our
        # side, between frames), so each reply wait is bounded: a half-open
        # connection to a dead broker times out into the reconnect path
        # instead of hanging the worker forever.
        sock.settimeout(options.idle_timeout)
        try:
            info = protocol.hello(sock, worker_id)
        except protocol.ProtocolError:
            # A *violation* (version mismatch, malformed/oversized frame),
            # not an outage: retrying such a broker would spin forever.
            raise
        except (ConnectionError, OSError) as error:
            return _ConnectionOutcome("lost", False, error)
        _LOGGER.info("worker registered", worker=worker_id,
                     tasks=info.get("tasks"))
        # Flush results stranded by a previous outage before asking for new
        # work — the broker requeued those leases when the old connection
        # dropped, so each redelivery is acked fresh (it beat the requeued
        # copy) or as a duplicate (someone retrained it first); both bits
        # are identical, so either answer is fine.
        while state.undelivered:
            index, result, backend = state.undelivered[0]
            try:
                deliver(index, result, backend)
            except protocol.ProtocolError:
                raise
            except (ConnectionError, OSError) as error:
                return _ConnectionOutcome("lost", True, error)
            state.undelivered.pop(0)
            telemetry.count("distributed.worker.redelivered_results")
            _LOGGER.info("stranded result redelivered", worker=worker_id,
                         task=index)
        while options.max_tasks is None or state.completed < options.max_tasks:
            if drain.is_set():
                _LOGGER.info("drain requested; exiting cleanly",
                             worker=worker_id, completed=state.completed)
                announce_drain()
                return _ConnectionOutcome("drain", True)
            try:
                send(protocol.GET, LEASE_CAPACITY)
                kind, payload = protocol.recv_message(sock)
            except protocol.ProtocolError:
                raise
            except (ConnectionError, OSError) as error:
                return _ConnectionOutcome("lost", True, error)
            if kind == protocol.SHUTDOWN:
                return _ConnectionOutcome("shutdown", True)
            if kind == protocol.DRAIN:
                # The broker retired this worker (fleet scale-down).  No
                # lease is held at this point — GET only goes out between
                # batches — so exiting here abandons nothing.
                telemetry.count("distributed.worker.drains")
                _LOGGER.info("drained by broker", worker=worker_id,
                             completed=state.completed)
                return _ConnectionOutcome("drain", True)
            if kind == protocol.WAIT:
                telemetry.count("distributed.worker.wait_frames")
                time.sleep(float(payload))
                continue
            if kind != protocol.TASKS:
                raise protocol.ProtocolError(
                    f"expected TASKS/WAIT/SHUTDOWN/DRAIN, got {kind!r}")
            # Up to lease_batch independent leases, executed sequentially
            # with one RESULT/ACK pair each, so requeue/dedup stay per task.
            for index, task in payload:
                result, was_cached = _execute_with_heartbeat(
                    task, store, send, options.heartbeat_interval)
                try:
                    fresh = deliver(index, result, DISTRIBUTED_BACKEND)
                except protocol.ProtocolError:
                    raise
                except (ConnectionError, OSError) as error:
                    # Result may or may not have landed; the broker requeues
                    # the lease if it didn't, and dedups the delivery if it
                    # did.  Stash it for redelivery after a reconnect; the
                    # rest of the batch is abandoned (the broker requeued
                    # those leases the moment this connection dropped).
                    _LOGGER.warning("broker lost mid-result", worker=worker_id,
                                    task=index)
                    state.undelivered.append((index, result,
                                              DISTRIBUTED_BACKEND))
                    return _ConnectionOutcome("lost", True, error)
                if was_cached:
                    telemetry.count("distributed.worker.cache_hits")
                _LOGGER.info("task done", worker=worker_id, task=index,
                             cached=was_cached, accepted=fresh)
            # A signal that landed mid-batch drains at the *batch* boundary:
            # every lease the worker held has now been delivered and acked,
            # so the drain requeues nothing (the loop top exits next pass).
        return _ConnectionOutcome("max_tasks", True)
    finally:
        sock.close()


def _execute_with_heartbeat(task: SweepTask, store, send,
                            interval: float) -> Tuple[TrainingResult, bool]:
    """Train one task while a daemon thread keeps the broker lease alive."""
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(interval):
            try:
                send(protocol.HEARTBEAT)
            except OSError:       # broker went away; the main loop will notice
                return

    thread = threading.Thread(target=beat, name="worker-heartbeat", daemon=True)
    thread.start()
    try:
        with telemetry.span("worker.task"):
            return execute_task(task, store)
    finally:
        stop.set()
        thread.join(timeout=1.0)


__all__ = ["DISTRIBUTED_BACKEND", "LEASE_CAPACITY", "WorkerOptions",
           "default_worker_id", "execute_task", "run_worker"]
