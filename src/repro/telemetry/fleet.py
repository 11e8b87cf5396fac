"""Client side of the broker ``STATS`` channel: ``repro fleet status``.

:func:`fetch_fleet_stats` opens a short-lived observer connection to a
live :class:`~repro.distributed.broker.SweepBroker`, performs the
version-checked handshake (with an id prefixed
:data:`~repro.distributed.protocol.OBSERVER_PREFIX` so the broker keeps
it out of the worker accounting), and returns one JSON-ready snapshot::

    {
      "tasks":   {"total": N, "queued": q, "leased": l, "done": d},
      "counters": {"requeued_tasks": ..., "duplicate_results": ...,
                   "wait_replies": ..., "workers_seen": ...,
                   "active_connections": ..., "drains_requested": ...,
                   "drains_completed": ..., "drain_requeued_tasks": ...},
      "workers": {worker_id: {"connected": bool, "draining": bool,
                              "last_seen_seconds_ago": float,
                              "completed": int, "leases": int,
                              "oldest_lease_age": float}, ...},
      "drain_seconds": [...],
      "transport": {"frames_sent": ..., "bytes_sent": ..., ...},
      "lease_batch": int, "heartbeat_timeout": float,
      "repro_version": "1.9.0"
    }

with ``queued + leased + done == total`` guaranteed by the broker.
:func:`format_fleet_status` renders the same snapshot as the aligned text
the CLI prints; ``repro fleet status --json`` emits the raw document.
"""

from __future__ import annotations

import socket
import uuid
from typing import Dict, List, Optional

from repro.distributed import protocol
from repro.experiments.reporting import format_table
from repro.utils.retry import RetryPolicy


class FleetStatusError(ConnectionError):
    """The broker could not be queried (unreachable, or another version).

    ``transient`` distinguishes failures worth retrying (broker briefly
    unreachable, connection dropped mid-query) from definitive answers
    (version mismatch, malformed reply) that no amount of retrying will
    change — the ``retry=`` path of the fleet clients backs off only on
    the former.
    """

    def __init__(self, message: str, *, transient: bool = False) -> None:
        super().__init__(message)
        self.transient = transient


def observer_id() -> str:
    """A fresh observer worker-id (never enters the broker's worker table)."""
    return f"{protocol.OBSERVER_PREFIX}-{uuid.uuid4().hex[:8]}"


def fetch_fleet_stats(host: str, port: int, *, timeout: float = 5.0,
                      retry: Optional[RetryPolicy] = None) -> Dict[str, object]:
    """Query one ``STATS`` snapshot from the broker at ``host:port``.

    With ``retry`` set, transient failures (broker unreachable or dropping
    the query — e.g. mid-restart from its journal) are retried on the
    policy's backoff schedule; definitive failures (version mismatch,
    malformed reply) raise immediately either way.
    """
    if retry is not None:
        clock = retry.clock()
        while True:
            try:
                return fetch_fleet_stats(host, port, timeout=timeout)
            except FleetStatusError as error:
                if not error.transient:
                    raise
                clock.failed(error)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as error:
        raise FleetStatusError(
            f"cannot reach broker at {host}:{port}: {error}",
            transient=True) from error
    with sock:
        try:
            protocol.hello(sock, observer_id())
            protocol.send_message(sock, protocol.STATS)
            kind, snapshot = protocol.recv_message(sock)
            if kind != protocol.STATS:
                raise protocol.ProtocolError(f"expected STATS, got {kind!r}")
        except protocol.VersionMismatchError as error:
            raise FleetStatusError(
                f"broker at {host}:{port}: {error}") from error
        except (ConnectionError, OSError) as error:
            raise FleetStatusError(
                f"broker at {host}:{port} dropped the stats query: "
                f"{error}", transient=True) from error
    if not isinstance(snapshot, dict):
        raise FleetStatusError(
            f"malformed STATS payload: {type(snapshot).__name__}")
    return snapshot


def format_fleet_status(snapshot: Dict[str, object]) -> str:
    """Render a STATS snapshot as the text ``repro fleet status`` prints."""
    tasks = snapshot.get("tasks", {})
    counters = snapshot.get("counters", {})
    transport = snapshot.get("transport", {})
    lines = [
        "fleet status (broker {version}, lease_batch={batch}, "
        "heartbeat_timeout={hb:g}s)".format(
            version=snapshot.get("repro_version", "?"),
            batch=snapshot.get("lease_batch", "?"),
            hb=float(snapshot.get("heartbeat_timeout", 0.0))),
        "tasks: {done}/{total} done, {queued} queued, {leased} leased".format(
            done=tasks.get("done", 0), total=tasks.get("total", 0),
            queued=tasks.get("queued", 0), leased=tasks.get("leased", 0)),
        "counters: requeued={requeued_tasks} duplicates={duplicate_results} "
        "waits={wait_replies} workers_seen={workers_seen} "
        "connections={active_connections}".format(
            **{key: counters.get(key, 0)
               for key in ("requeued_tasks", "duplicate_results",
                           "wait_replies", "workers_seen",
                           "active_connections")}),
        "drains: requested={drains_requested} completed={drains_completed} "
        "lost_leases={drain_requeued_tasks}".format(
            **{key: counters.get(key, 0)
               for key in ("drains_requested", "drains_completed",
                           "drain_requeued_tasks")}),
        "transport: {frames_sent} frames out ({bytes_sent} B), "
        "{frames_received} frames in ({bytes_received} B)".format(
            **{key: transport.get(key, 0)
               for key in ("frames_sent", "bytes_sent",
                           "frames_received", "bytes_received")}),
    ]
    workers = snapshot.get("workers", {})
    if workers:
        rows: List[Dict[str, object]] = []
        for worker_id in sorted(workers):
            info = workers[worker_id]
            if not info.get("connected"):
                state = "gone"
            elif info.get("draining"):
                state = "draining"
            else:
                state = "up"
            rows.append({
                "worker": worker_id,
                "state": state,
                "last_seen": f"{float(info.get('last_seen_seconds_ago', 0.0)):.1f}s",
                "done": info.get("completed", 0),
                "leases": info.get("leases", 0),
                "oldest_lease": f"{float(info.get('oldest_lease_age', 0.0)):.1f}s",
            })
        lines.append("")
        lines.append(format_table(rows))
    else:
        lines.append("workers: none registered yet")
    return "\n".join(lines)


__all__ = ["FleetStatusError", "fetch_fleet_stats", "format_fleet_status",
           "observer_id"]
