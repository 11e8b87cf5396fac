"""``PolicyClient``: talk to a :class:`~repro.serving.server.PolicyServer`.

The client side of the serving frames: connect, run the version-checked
``HELLO``/``WELCOME`` handshake (refusing politely when the peer is a sweep
broker rather than a serving daemon), then

* :meth:`PolicyClient.act` — one observation, one greedy action;
* :meth:`PolicyClient.act_many` — *pipelined*: all ``ACT`` frames are
  written before any reply is read, so one client saturates the server's
  micro-batcher instead of serializing on round trips;
* :meth:`PolicyClient.swap` — push a (pickled) trained agent into the live
  server, the transport under :class:`~repro.serving.WeightPushCallback`;
* :meth:`PolicyClient.stats` — the server's counters + latency histograms.

Mirrors the :func:`~repro.telemetry.fleet.fetch_fleet_stats` connection
idiom; errors surface as :class:`ServingError` with the reason the server
gave, never a raw pickle traceback.
"""

from __future__ import annotations

import pickle
import socket
import uuid
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.distributed import protocol
from repro.utils.retry import RetryPolicy


class ServingError(RuntimeError):
    """The server rejected a request (or the peer is not a policy server).

    ``transient`` marks failures a retry might fix (server unreachable,
    connection dropped) as opposed to definitive rejections (wrong peer,
    unknown design) — :class:`~repro.serving.WeightPushCallback`'s backoff
    and the ``retry=`` connect path both branch on it.
    """

    def __init__(self, message: str, *, transient: bool = False) -> None:
        super().__init__(message)
        self.transient = transient


class PolicyClient:
    """A blocking client for one serving connection.

    Parameters
    ----------
    host / port:
        The server address (``PolicyServer.address`` or the ``repro serve``
        banner).
    design:
        Default design for :meth:`act`/:meth:`act_many`/:meth:`swap`.
        Optional when the server hosts exactly one design (it becomes the
        default); required per call otherwise.
    timeout:
        Socket timeout in seconds for connect and each reply.
    retry:
        Optional :class:`~repro.utils.retry.RetryPolicy` for the connect +
        handshake: *transient* failures (server not up yet, connection
        dropped mid-handshake) back off and retry on its schedule, so a
        client racing a restarting server converges instead of dying.
        Definitive rejections ("that's a sweep broker", a version
        mismatch) raise immediately.
        Established connections are never silently re-dialed — a dropped
        request still raises, because replaying it could double-act.
    connect_factory:
        Socket factory ``(host, port, timeout) -> socket`` replacing
        ``socket.create_connection`` (the :class:`~repro.chaos.FaultPlan`
        injection seam, mirroring ``WorkerOptions.connect_factory``).
    """

    def __init__(self, host: str, port: int, *,
                 design: Optional[str] = None, timeout: float = 10.0,
                 client_id: Optional[str] = None,
                 retry: Optional[RetryPolicy] = None,
                 connect_factory: Optional[Callable[[str, int, float],
                                                    socket.socket]] = None) -> None:
        self.client_id = client_id or f"client-{uuid.uuid4().hex[:8]}"
        self._connect_factory = connect_factory
        if retry is None:
            self._sock, info = self._open(host, port, timeout)
        else:
            clock = retry.clock()
            while True:
                try:
                    self._sock, info = self._open(host, port, timeout)
                    break
                except ServingError as error:
                    if not error.transient:
                        raise
                    clock.failed(error)
        self.server_info: Dict[str, Any] = info
        self.designs: List[str] = list(info.get("designs", []))
        if design is None and len(self.designs) == 1:
            design = self.designs[0]
        self.design = design

    def _open(self, host: str, port: int, timeout: float):
        """One connect + HELLO/WELCOME handshake; ``(socket, server info)``."""
        try:
            if self._connect_factory is not None:
                sock = self._connect_factory(host, port, timeout)
            else:
                sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as error:
            raise ServingError(
                f"cannot reach policy server at {host}:{port}: {error}",
                transient=True) from error
        try:
            info = protocol.hello(sock, self.client_id)
            if not info.get("serving"):
                raise ServingError(
                    f"peer at {host}:{port} is not a policy server "
                    f"(a sweep broker?); point the client at `repro serve`")
        except protocol.ProtocolError as error:   # version mismatch, garbled reply
            sock.close()
            raise ServingError(
                f"policy server at {host}:{port}: {error}") from error
        except (ConnectionError, OSError) as error:
            sock.close()
            raise ServingError(
                f"handshake with {host}:{port} failed: {error}",
                transient=True) from error
        except ServingError:
            sock.close()
            raise
        return sock, info

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "PolicyClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ requests
    def _design(self, design: Optional[str]) -> str:
        resolved = design if design is not None else self.design
        if resolved is None:
            raise ValueError(
                f"no design given and the server hosts {self.designs}; "
                f"pass design=...")
        return resolved

    def _recv(self) -> Any:
        try:
            return protocol.recv_message(self._sock)
        except (ConnectionError, OSError) as error:
            raise ServingError(f"server connection lost: {error}",
                transient=True) from error

    def act(self, state: Sequence[float], *,
            design: Optional[str] = None) -> int:
        """The greedy action for one observation."""
        return int(self.act_many([state], design=design)[0])

    def act_many(self, states: Sequence[Sequence[float]], *,
                 design: Optional[str] = None) -> np.ndarray:
        """Greedy actions for many observations, pipelined.

        All ``ACT`` frames are sent before any ``ACTION`` is read; the
        server's per-connection writer preserves request order, so the
        returned array lines up with ``states`` row for row.
        """
        resolved = self._design(design)
        matrix = np.asarray(states, dtype=np.float64)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1)
        if matrix.ndim != 2:
            raise ValueError(
                f"states must be (batch, n_states), got shape {matrix.shape}")
        try:
            for row in matrix:
                protocol.send_message(self._sock, protocol.ACT,
                                      (resolved, row))
        except (ConnectionError, OSError) as error:
            raise ServingError(f"server connection lost: {error}",
                transient=True) from error
        actions = np.empty(matrix.shape[0], dtype=np.int64)
        for index in range(matrix.shape[0]):
            kind, payload = self._recv()
            if kind == protocol.ERROR:
                raise ServingError(str(payload))
            if kind != protocol.ACTION:
                raise ServingError(f"unexpected {kind!r} reply to ACT")
            actions[index] = int(payload)
        return actions

    def swap(self, agent: Any, *, design: Optional[str] = None) -> Dict[str, Any]:
        """Hot-swap the live policy for ``design`` to ``agent``.

        The agent is pickled whole (exactly what ``CheckpointCallback``
        already proves picklable), so the server's post-swap behaviour is
        identical to this agent's offline greedy behaviour.  Returns the
        server's acknowledgement (``{"design", "generation"}``).
        """
        resolved = self._design(design)
        blob = pickle.dumps(agent, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            protocol.send_message(self._sock, protocol.SWAP, (resolved, blob))
        except (ConnectionError, OSError) as error:
            raise ServingError(f"server connection lost: {error}",
                transient=True) from error
        kind, payload = self._recv()
        if kind == protocol.ERROR:
            raise ServingError(str(payload))
        if kind != protocol.SWAPPED:
            raise ServingError(f"unexpected {kind!r} reply to SWAP")
        if resolved not in self.designs:
            self.designs.append(resolved)
        return dict(payload)

    def stats(self) -> Dict[str, Any]:
        """The server's ``STATS`` snapshot (counters, latency percentiles)."""
        try:
            protocol.send_message(self._sock, protocol.STATS, None)
        except (ConnectionError, OSError) as error:
            raise ServingError(f"server connection lost: {error}",
                transient=True) from error
        kind, payload = self._recv()
        if kind == protocol.ERROR:
            raise ServingError(str(payload))
        if kind != protocol.STATS:
            raise ServingError(f"unexpected {kind!r} reply to STATS")
        return dict(payload)


__all__ = ["PolicyClient", "ServingError"]
