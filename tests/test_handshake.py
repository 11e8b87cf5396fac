"""The version-checked handshake: every peer runs the same repro version.

Trial keys embed ``repro.__version__``, so a peer running other code must
never be served — its results would land under this version's keys.  Both
servers (the sweep broker and the policy server) refuse a ``HELLO`` from
another version, and every client refuses a server of another version,
each with one error naming both versions and without retrying.
"""

import socket
import threading
from contextlib import contextmanager

import pytest

import repro
from repro import make_design
from repro.distributed import protocol
from repro.distributed.broker import SweepBroker
from repro.distributed.worker import WorkerOptions, run_worker
from repro.fleet import FleetControlError, request_drain
from repro.parallel.sweep import SweepSpec
from repro.serving import PolicyClient, PolicyServer, ServingError
from repro.telemetry.fleet import FleetStatusError, fetch_fleet_stats
from repro.training import TrainingConfig
from repro.utils.retry import RetryPolicy

OTHER_VERSION = "2.0.0"

#: What a peer of another version sends, and the version the error must name.
HELLOS = {
    "other-version": ({"id": "peer", "version": OTHER_VERSION}, OTHER_VERSION),
    # Every release up to 1.8 sent its bare id, with no version at all.
    "bare-string": ("peer", "1.8"),
}


@contextmanager
def _server(kind):
    if kind == "broker":
        spec = SweepSpec(designs=("OS-ELM-L2",), n_seeds=1, n_hidden=8,
                         training=TrainingConfig(max_episodes=2), root_seed=1)
        with SweepBroker(spec.tasks()) as broker:
            yield broker.address, broker
    else:
        agent = make_design("ELM", n_hidden=8, seed=0)
        with PolicyServer({"ELM": agent}) as server:
            yield server.address, None


@pytest.mark.parametrize("hello", HELLOS.values(), ids=list(HELLOS))
@pytest.mark.parametrize("server", ["broker", "policy_server"])
def test_server_refuses_a_peer_of_another_version(server, hello):
    payload, peer_version = hello
    with _server(server) as (address, broker):
        with socket.create_connection(address, timeout=5.0) as sock:
            protocol.send_message(sock, protocol.HELLO, payload)
            kind, reason = protocol.recv_message(sock)
            assert kind == protocol.ERROR
            assert repro.__version__ in reason and peer_version in reason
            with pytest.raises(ConnectionError):
                protocol.recv_message(sock)          # closed after refusing
        if broker is not None:
            assert broker.workers_seen == set()      # never registered


class _OtherVersionServer:
    """A server of another version: refuses us, or welcomes without ours."""

    def __init__(self, reply):
        self.reply = reply
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.1)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def address(self):
        return self._listener.getsockname()[:2]

    def _serve(self):
        while not self._stop.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            self.connections += 1
            with connection:
                connection.settimeout(5.0)
                try:
                    kind, _payload = protocol.recv_message(connection)
                    assert kind == protocol.HELLO
                    protocol.send_message(connection, *self.reply)
                    protocol.recv_message(connection)    # until the peer hangs up
                except (ConnectionError, OSError):
                    pass

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._listener.close()


_WELCOME = {"tasks": 1, "serving": True, "designs": ["ELM"]}
SERVERS = {
    "refuses": ((protocol.ERROR,
                 f"repro version mismatch: this side runs repro {OTHER_VERSION}, "
                 f"the peer runs repro {repro.__version__}"), OTHER_VERSION),
    "other-version": ((protocol.WELCOME, {**_WELCOME, "version": OTHER_VERSION}),
                      OTHER_VERSION),
    # A release up to 1.8 welcomes anyone and advertises capability flags.
    "unversioned": ((protocol.WELCOME, dict(_WELCOME, stats=True, drain=True)),
                    "1.8"),
}

#: Every client retries transient failures; a refusal must not be retried.
_RETRY = RetryPolicy(max_attempts=5, base_delay=0.01)

CLIENTS = {
    "worker": (lambda host, port: run_worker(host, port, WorkerOptions(
        worker_id="w0", handle_signals=False, connect_timeout=2.0,
        reconnect=_RETRY)), protocol.VersionMismatchError),
    "fleet_observer": (lambda host, port: fetch_fleet_stats(
        host, port, timeout=2.0, retry=_RETRY), FleetStatusError),
    "drain_control": (lambda host, port: request_drain(
        host, port, ["w0"], timeout=2.0, retry=_RETRY), FleetControlError),
    "policy_client": (lambda host, port: PolicyClient(
        host, port, timeout=2.0, retry=_RETRY), ServingError),
}


@pytest.mark.parametrize("server", SERVERS.values(), ids=list(SERVERS))
@pytest.mark.parametrize("client", CLIENTS.values(), ids=list(CLIENTS))
def test_client_refuses_a_server_of_another_version(client, server):
    connect, error_type = client
    reply, server_version = server
    other = _OtherVersionServer(reply)
    try:
        with pytest.raises(error_type) as caught:
            connect(*other.address)
    finally:
        other.close()
    message = str(caught.value)
    assert repro.__version__ in message and server_version in message
    assert not getattr(caught.value, "transient", False)
    assert other.connections == 1                    # refused, never retried
