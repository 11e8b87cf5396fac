"""Client side of the broker ``DRAIN`` control channel.

The autoscaler (and anything else that wants to retire workers — an ops
script, a future multi-broker shard manager) asks the broker to drain
workers through a short-lived observer connection, exactly like
:func:`repro.telemetry.fleet.fetch_fleet_stats` queries stats: connect,
the version-checked handshake with an
:data:`~repro.distributed.protocol.OBSERVER_PREFIX` id (so the connection
never enters worker accounting), send ``(DRAIN, [ids])`` and read back the
broker's disposition report::

    {"marked": [...], "already_draining": [...],
     "unknown": [...], "gone": [...]}

Short-lived on purpose: a persistent control connection would keep the
broker's ``active_connections`` above zero forever and defeat the
coordinator's dead-fleet detection.
"""

from __future__ import annotations

import socket
from typing import Dict, List, Optional, Sequence

from repro.distributed import protocol
from repro.telemetry.fleet import FleetStatusError, observer_id
from repro.utils.retry import RetryPolicy


class FleetControlError(FleetStatusError):
    """The broker could not be asked to drain (unreachable or another version)."""


def request_drain(host: str, port: int, worker_ids: Sequence[str], *,
                  timeout: float = 5.0,
                  retry: Optional[RetryPolicy] = None) -> Dict[str, List[str]]:
    """Ask the broker at ``host:port`` to gracefully drain ``worker_ids``.

    Returns the broker's disposition dict (see module docstring).  Raises
    :class:`FleetControlError` when the broker cannot be asked: a
    *transient* error means it is unreachable, and the caller should fall
    back to SIGTERM-ing the worker processes it owns, which triggers the
    same finish-then-exit drain from the worker's side.

    With ``retry`` set, transient failures are retried on the policy's
    schedule (marking an already-draining worker twice is answered, not
    compounded — the broker reports ``already_draining`` — so a retried
    drain request is idempotent).  Version mismatches raise immediately.
    """
    ids = [str(worker_id) for worker_id in worker_ids]
    if not ids:
        return {"marked": [], "already_draining": [], "unknown": [],
                "gone": []}
    if retry is not None:
        clock = retry.clock()
        while True:
            try:
                return request_drain(host, port, ids, timeout=timeout)
            except FleetControlError as error:
                if not error.transient:
                    raise
                clock.failed(error)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as error:
        raise FleetControlError(
            f"cannot reach broker at {host}:{port}: {error}",
            transient=True) from error
    with sock:
        try:
            protocol.hello(sock, observer_id())
            protocol.send_message(sock, protocol.DRAIN, ids)
            kind, report = protocol.recv_message(sock)
            if kind != protocol.DRAIN:
                raise protocol.ProtocolError(f"expected DRAIN, got {kind!r}")
        except protocol.VersionMismatchError as error:
            raise FleetControlError(
                f"broker at {host}:{port}: {error}") from error
        except (ConnectionError, OSError) as error:
            raise FleetControlError(
                f"broker at {host}:{port} dropped the drain request: "
                f"{error}", transient=True) from error
    if not isinstance(report, dict):
        raise FleetControlError(
            f"malformed DRAIN reply: {type(report).__name__}")
    return {key: list(report.get(key, []))
            for key in ("marked", "already_draining", "unknown", "gone")}


__all__ = ["FleetControlError", "request_drain"]
