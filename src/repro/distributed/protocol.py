"""Wire protocol of the distributed sweep backend: framed pickle messages.

The broker and its workers exchange Python objects over a TCP stream as
length-prefixed pickle frames — an 8-byte big-endian payload size followed
by the pickled message.  Every message is a ``(kind, payload)`` tuple with
``kind`` one of the module constants below; keeping the frame format this
small means the protocol needs no third-party dependency and any object the
sweep already pickles for the process backend (``SweepTask``,
``TrainingResult``) travels unchanged.

Handshake
---------
Every connection opens with one version-checked handshake: the client
sends ``(HELLO, {"id": peer_id, "version": repro.__version__})`` and the
server answers ``(WELCOME, info)`` with ``info["version"]`` set to its own
version.  The rule is that every peer runs the same version: trial keys
embed ``repro.__version__``, so a worker running other code must never
deliver results under the broker's keys.  A server refuses any other
``HELLO`` — another version, or the bare-string id that unversioned
releases sent — with ``(ERROR, reason)`` naming both versions, and closes
the connection.  :func:`hello` (client) and :func:`accept_hello` plus
:func:`welcome_info` (server) are the only code that looks at versions.

Message flow
------------
The conversation is strictly client-driven: the broker only ever writes in
*response* to a worker frame, so the worker can interleave unsolicited
``HEARTBEAT`` frames (which get no reply) from a background thread without
desynchronizing the request/response pairing.

===================  =======================  ================================
worker sends          broker replies           meaning
===================  =======================  ================================
``(HELLO, hello)``      ``(WELCOME, info)``     registration; ``info`` carries
                                                the sweep size and version
..                      ``(ERROR, reason)``     version mismatch; the broker
                                                closes the connection
``(GET, capacity)``     ``(TASKS, [(idx, task), ...])``  a batch of leased
                                                 tasks, at most
                                                 ``min(broker lease_batch,
                                                 capacity)``; ``capacity`` is
                                                 a positive int
..                      ``(WAIT, seconds)``      nothing free right now — every
                                                 remaining task is leased to
                                                 another worker; poll again
..                      ``(SHUTDOWN, None)``     all tasks complete, disconnect
..                      ``(DRAIN, None)``        the worker is marked for
                                                 retirement: deliver nothing
                                                 more, disconnect gracefully
``(RESULT, (idx, result, backend))``  ``(ACK, fresh)``  result received;
                                                 ``fresh`` is False for a
                                                 duplicate delivery
``(HEARTBEAT, None)``   *(no reply)*             lease keep-alive mid-trial
``(STATS, None)``       ``(STATS, snapshot)``    fleet observability snapshot
                                                 (tasks queued/leased/done,
                                                 per-worker liveness, counters)
``(DRAIN, None)``       *(no reply)*             worker announces it is
                                                 draining itself (SIGTERM):
                                                 it will deliver its in-flight
                                                 results and disconnect
``(DRAIN, [ids])``      ``(DRAIN, info)``        control request (observer/
                                                 autoscaler): mark workers
                                                 for drain; ``info`` lists
                                                 ``marked``/``unknown`` ids
===================  =======================  ================================

The ``repro fleet status`` observer registers with a peer id prefixed
:data:`OBSERVER_PREFIX` so brokers keep it out of the worker accounting.

Drain
-----
``DRAIN`` is the graceful half of elastic scaling (:mod:`repro.fleet`):
retiring a worker must never lose a lease.  The autoscaler marks a worker
through the control form ``(DRAIN, [worker_ids])`` on an observer
connection; the broker stops leasing to it and answers its next ``GET``
with ``(DRAIN, None)``; the worker — which by then has delivered every
result of its in-flight lease batch, since ``GET`` only happens at batch
boundaries — disconnects cleanly and exits.  A worker retired by SIGTERM
instead finishes its in-flight batch, delivers the results, announces
``(DRAIN, None)`` and disconnects.  Either way the broker observes a
draining worker close its connection with no live leases: a *graceful*
drain, counted (with its duration) in the ``STATS`` snapshot.

Serving frames
--------------
The :class:`~repro.serving.PolicyServer` daemon speaks the same framing
and the same handshake with its own kinds.  Its ``WELCOME`` info also
carries ``"serving": True`` plus its design list, so a client that
connects to a broker fails with one clear error instead of a pickle
surprise:

=====================  ==========================  =========================
client sends            server replies              meaning
=====================  ==========================  =========================
``(HELLO, hello)``      ``(WELCOME, info)``         registration; ``info``
                                                    carries designs/limits
``(ACT, (design, state))``  ``(ACTION, action)``    one greedy action for one
                                                    observation (requests are
                                                    micro-batched server-side)
``(SWAP, (design, blob))``  ``(SWAPPED, info)``     hot-swap the design's
                                                    policy to the pickled
                                                    agent in ``blob``
``(STATS, None)``       ``(STATS, snapshot)``       request counters + latency
                                                    histograms (p50/p90/p99)
*anything invalid*      ``(ERROR, reason)``         unknown design, bad state
                                                    shape, undecodable blob...
=====================  ==========================  =========================

Security note: frames are pickles, so the broker must only be bound to
interfaces you trust (the default is loopback).  This mirrors the stdlib
``multiprocessing`` connection model the in-process backends already rely
on.  :func:`recv_message` additionally refuses frames larger than
``max_frame_bytes`` (default :data:`MAX_FRAME_BYTES`, overridable per call
or via ``$REPRO_MAX_FRAME_BYTES``) *before* allocating, so a corrupt or
hostile length header cannot trigger a giant allocation.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import threading
from typing import Any, Dict, Optional, Tuple

#: Message kinds (worker -> broker unless noted).
HELLO = "hello"
GET = "get"
RESULT = "result"
HEARTBEAT = "heartbeat"
#: Bidirectional: request payload ``None``, reply payload the snapshot.
STATS = "stats"
#: Bidirectional: worker -> broker with payload ``None`` announces a
#: self-initiated drain (no reply, like HEARTBEAT); broker -> worker as the
#: reply to a ``GET`` from a worker marked for retirement; observer ->
#: broker with a payload list of worker ids marks those workers for drain
#: (replied with a DRAIN info frame).
DRAIN = "drain"
#: Broker -> worker kinds.
WELCOME = "welcome"
TASKS = "tasks"          #: a lease batch ``[(idx, task), ...]``
WAIT = "wait"
SHUTDOWN = "shutdown"
ACK = "ack"

#: Serving kinds (PolicyClient <-> PolicyServer).
ACT = "act"              #: client -> server: ``(design, state)``
ACTION = "action"        #: server -> client: the greedy action
SWAP = "swap"            #: client -> server: ``(design, pickled agent blob)``
SWAPPED = "swapped"      #: server -> client: swap acknowledged (+ generation)
ERROR = "error"          #: server -> client: request rejected, payload = reason

#: HELLO ids starting with this mark observer connections (``repro fleet
#: status``): they may request STATS but never lease tasks, and brokers
#: exclude them from ``workers_seen`` and the per-worker liveness table.
OBSERVER_PREFIX = "_observer"

_HEADER = struct.Struct(">Q")

#: Default upper bound on a single frame (1 GiB) — a corrupted or malicious
#: header fails fast instead of attempting a giant allocation.  Network-facing
#: daemons pass a tighter per-call limit; ``$REPRO_MAX_FRAME_BYTES`` overrides
#: the default process-wide.
MAX_FRAME_BYTES = 1 << 30

#: Environment variable overriding the default frame-size ceiling.
MAX_FRAME_ENV_VAR = "REPRO_MAX_FRAME_BYTES"


def default_max_frame_bytes() -> int:
    """The process-wide frame ceiling: ``$REPRO_MAX_FRAME_BYTES`` or 1 GiB."""
    raw = os.environ.get(MAX_FRAME_ENV_VAR)
    if raw is None:
        return MAX_FRAME_BYTES
    try:
        limit = int(raw)
    except ValueError:
        raise ValueError(
            f"${MAX_FRAME_ENV_VAR} must be a positive integer, got {raw!r}"
        ) from None
    if limit <= 0:
        raise ValueError(
            f"${MAX_FRAME_ENV_VAR} must be a positive integer, got {raw!r}")
    return limit


class ProtocolError(ConnectionError):
    """A malformed frame or a violation of the request/response contract."""


class VersionMismatchError(ProtocolError):
    """The handshake failed: the peer runs another repro version.

    Never transient — retrying cannot change the peer's code — so reconnect
    loops and retry policies stop on it instead of backing off.
    """


class TransportCounters:
    """Frames/bytes moved through :func:`send_message` / :func:`recv_message`.

    One process-wide instance (:func:`transport_counters`) counts every
    framed message this process sends or receives — broker and worker alike
    — so the ``STATS`` snapshot and ``telemetry.json`` can report transport
    traffic.  Always on: the cost is two integer adds under a lock per
    frame, dwarfed by the pickle + syscall the frame itself costs.
    """

    __slots__ = ("_lock", "frames_sent", "frames_received",
                 "bytes_sent", "bytes_received")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def record_send(self, n_bytes: int) -> None:
        with self._lock:
            self.frames_sent += 1
            self.bytes_sent += n_bytes

    def record_receive(self, n_bytes: int) -> None:
        with self._lock:
            self.frames_received += 1
            self.bytes_received += n_bytes

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "frames_sent": self.frames_sent,
                "frames_received": self.frames_received,
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
            }

    def reset(self) -> None:
        with self._lock:
            self.frames_sent = self.frames_received = 0
            self.bytes_sent = self.bytes_received = 0


_COUNTERS = TransportCounters()


def transport_counters() -> TransportCounters:
    """This process's transport traffic counters."""
    return _COUNTERS


def send_message(sock: socket.socket, kind: str, payload: Any = None) -> None:
    """Write one framed ``(kind, payload)`` message to the socket."""
    body = pickle.dumps((kind, payload), protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(body)) + body)
    _COUNTERS.record_send(_HEADER.size + len(body))


def recv_message(sock: socket.socket, *,
                 max_frame_bytes: Optional[int] = None) -> Tuple[str, Any]:
    """Read one framed message; raises ``ConnectionError`` on EOF/corruption.

    ``max_frame_bytes`` caps the peer-supplied length *before* any
    allocation happens (default :func:`default_max_frame_bytes`); an
    oversized frame raises :class:`ProtocolError`.  Daemons that accept
    connections from the network pass a limit sized to their real traffic —
    the broker's trial results and the policy server's observations are
    orders of magnitude below the 1 GiB default.
    """
    limit = (default_max_frame_bytes() if max_frame_bytes is None
             else max_frame_bytes)
    if limit <= 0:
        raise ValueError(f"max_frame_bytes must be positive, got {limit}")
    header = _recv_exact(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > limit:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {limit}-byte limit")
    message = pickle.loads(_recv_exact(sock, length))
    if not (isinstance(message, tuple) and len(message) == 2
            and isinstance(message[0], str)):
        raise ProtocolError(f"malformed message: {type(message).__name__}")
    _COUNTERS.record_receive(_HEADER.size + length)
    return message


def _recv_exact(sock: socket.socket, n_bytes: int) -> bytes:
    chunks = []
    remaining = n_bytes
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _version() -> str:
    from repro import __version__   # deferred: repro/__init__ imports this module

    return __version__


def _mismatch(peer_version: Any) -> str:
    theirs = (f"repro {peer_version}" if isinstance(peer_version, str)
              else "an unversioned repro (1.8 or older)")
    return (f"repro version mismatch: this side runs repro {_version()}, "
            f"the peer runs {theirs}; every peer must run the same version")


def hello(sock: socket.socket, peer_id: str) -> Dict[str, Any]:
    """Client half of the handshake; returns the server's ``WELCOME`` info.

    Raises :class:`VersionMismatchError` when the server refuses the
    handshake or welcomes us with another version, and
    :class:`ProtocolError` for any other reply.
    """
    send_message(sock, HELLO, {"id": peer_id, "version": _version()})
    kind, info = recv_message(sock)
    if kind == ERROR:
        raise VersionMismatchError(str(info))
    if kind != WELCOME or not isinstance(info, dict):
        raise ProtocolError(f"expected WELCOME, got {kind!r}")
    if info.get("version") != _version():
        raise VersionMismatchError(_mismatch(info.get("version")))
    return info


def welcome_info(**fields: Any) -> Dict[str, Any]:
    """A server's ``WELCOME`` payload: ``fields`` plus this side's version."""
    return {**fields, "version": _version()}


def accept_hello(payload: Any) -> str:
    """Server half of the handshake: the peer id of a valid ``HELLO``.

    Raises :class:`VersionMismatchError` (naming both versions) unless the
    payload is ``{"id": ..., "version": <this version>}``, and
    :class:`ProtocolError` for a versioned payload without a string id; the
    caller replies ``(ERROR, str(error))`` and closes the connection.
    """
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != _version():
        raise VersionMismatchError(_mismatch(version))
    peer_id = payload.get("id")
    if not isinstance(peer_id, str):
        raise ProtocolError(f"HELLO carries no peer id: {peer_id!r}")
    return peer_id


def parse_address(address: str) -> Tuple[str, int]:
    """Parse ``"host:port"`` (the CLI's ``--connect``/``--bind`` format)."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must look like HOST:PORT, got {address!r}")
    return host, int(port)


__all__ = [
    "ACK", "ACT", "ACTION", "DRAIN", "ERROR", "GET", "HEARTBEAT", "HELLO",
    "MAX_FRAME_BYTES", "MAX_FRAME_ENV_VAR", "OBSERVER_PREFIX",
    "ProtocolError", "RESULT", "SHUTDOWN", "STATS", "SWAP", "SWAPPED",
    "TASKS", "TransportCounters", "VersionMismatchError", "WAIT", "WELCOME",
    "accept_hello", "default_max_frame_bytes", "hello", "parse_address",
    "recv_message", "send_message", "transport_counters", "welcome_info",
]
