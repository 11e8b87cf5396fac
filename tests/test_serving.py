"""Tests of the serving stack: batcher, protocol edge cases, byte-identity.

Protocol edge cases drive :class:`~repro.serving.server.PolicyServer` with
raw scripted sockets in the style of ``test_distributed_broker.py`` —
malformed frames, oversized frames, disconnects mid-batch, swaps racing
in-flight requests — so every fault a client fleet can throw at the daemon
is exercised deterministically.  The byte-identity tests pin the paper-level
contract: an action served through pickling + micro-batching equals the
same observation evaluated offline with ``agent.act(state, explore=False)``,
for every agent family and after a hot swap.
"""

import pickle
import socket
import struct
import threading

import numpy as np
import pytest

import repro
from repro import Trainer, TrainingConfig, make_design
from repro.distributed import protocol
from repro.distributed.broker import SweepBroker
from repro.parallel.sweep import SweepSpec
from repro.serving import (
    BatcherClosed,
    MicroBatcher,
    PolicyClient,
    PolicyServer,
    ServingError,
    WeightPushCallback,
)

DESIGNS = ("ELM", "OS-ELM", "DQN")


def _trained_agent(design, *, seed=7, episodes=2):
    agent = make_design(design, n_hidden=8, seed=seed)
    Trainer().fit(agent, config=TrainingConfig(max_episodes=episodes))
    return agent


@pytest.fixture(scope="module")
def agents():
    """One briefly-trained agent per family, shared across the module."""
    return {design: _trained_agent(design) for design in DESIGNS}


def _probe_states(agent, n=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(n, agent.config.n_states))


def _offline_greedy(agent, states):
    return np.array([agent.act(state, explore=False) for state in states],
                    dtype=np.int64)


def _clone(agent):
    """A pickle round trip — exactly what loading from a store produces."""
    return pickle.loads(pickle.dumps(agent))


# ---------------------------------------------------------------------- batcher
class TestMicroBatcher:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(lambda d, s: s, max_batch=0)
        with pytest.raises(ValueError, match="max_wait_us"):
            MicroBatcher(lambda d, s: s, max_wait_us=-1)

    def test_fills_to_max_batch(self):
        sizes = []

        def dispatch(design, states):
            sizes.append(len(states))
            return np.zeros(len(states), dtype=np.int64)

        batcher = MicroBatcher(dispatch, max_batch=4, max_wait_us=500_000)
        # Queue everything before the dispatcher starts: it must drain the
        # backlog as two full batches, without waiting out max_wait_us.
        pending = [batcher.submit("d", np.zeros(4)) for _ in range(8)]
        with batcher:
            assert [request.result(timeout=5.0) for request in pending] == [0] * 8
        assert sizes == [4, 4]

    def test_max_wait_flushes_partial_batch(self):
        sizes = []

        def dispatch(design, states):
            sizes.append(len(states))
            return np.arange(len(states))

        batcher = MicroBatcher(dispatch, max_batch=64, max_wait_us=10_000)
        pending = [batcher.submit("d", np.zeros(4)) for _ in range(3)]
        with batcher:
            assert [request.result(timeout=5.0) for request in pending] == [0, 1, 2]
        assert sizes == [3]

    def test_head_of_line_order_across_designs(self):
        order = []

        def dispatch(design, states):
            order.append(design)
            return np.zeros(len(states), dtype=np.int64)

        batcher = MicroBatcher(dispatch, max_batch=1, max_wait_us=0)
        first = batcher.submit("a", np.zeros(2))
        second = batcher.submit("b", np.zeros(2))
        with batcher:
            first.result(timeout=5.0)
            second.result(timeout=5.0)
        assert order == ["a", "b"]

    def test_dispatch_error_fails_whole_batch(self):
        def dispatch(design, states):
            raise RuntimeError("model exploded")

        batcher = MicroBatcher(dispatch, max_batch=4, max_wait_us=1000)
        pending = [batcher.submit("d", np.zeros(4)) for _ in range(2)]
        with batcher:
            for request in pending:
                with pytest.raises(RuntimeError, match="model exploded"):
                    request.result(timeout=5.0)

    def test_close_fails_pending_and_rejects_new(self):
        batcher = MicroBatcher(lambda d, s: np.zeros(len(s)))
        # Never started: the request can only be failed by close().
        request = batcher.submit("d", np.zeros(4))
        batcher.close()
        with pytest.raises(BatcherClosed):
            request.result(timeout=1.0)
        with pytest.raises(BatcherClosed):
            batcher.submit("d", np.zeros(4))


# ---------------------------------------------------------------- scripted sockets
class _RawClient:
    """A bare socket speaking the serving protocol, one frame at a time."""

    def __init__(self, server, client_id="raw", handshake=True):
        host, port = server.address
        self.sock = socket.create_connection((host, port), timeout=5.0)
        if handshake:
            self.welcome_info = protocol.hello(self.sock, client_id)

    def send(self, kind, payload=None):
        protocol.send_message(self.sock, kind, payload)

    def recv(self):
        return protocol.recv_message(self.sock)

    def sendall(self, raw):
        self.sock.sendall(raw)

    def assert_closed_by_peer(self, timeout=5.0):
        self.sock.settimeout(timeout)
        try:
            assert self.sock.recv(1) == b""
        except ConnectionError:
            pass  # reset is as closed as it gets

    def close(self):
        self.sock.close()


class TestServerProtocol:
    def test_rejects_empty_and_batchless_policies(self):
        with pytest.raises(ValueError, match="nothing to serve"):
            PolicyServer({})
        with pytest.raises(TypeError, match="act_batch"):
            PolicyServer({"OS-ELM": object()})

    def test_welcome_advertises_serving(self, agents):
        with PolicyServer({"OS-ELM": _clone(agents["OS-ELM"])}) as server:
            raw = _RawClient(server)
            assert raw.welcome_info["serving"] is True
            assert raw.welcome_info["designs"] == ["OS-ELM"]
            assert raw.welcome_info["max_batch"] == 8
            raw.close()

    def test_unknown_design_errors_but_connection_survives(self, agents):
        agent = agents["OS-ELM"]
        state = _probe_states(agent, 1)[0]
        with PolicyServer({"OS-ELM": _clone(agent)}) as server:
            with PolicyClient(*server.address) as client:
                with pytest.raises(ServingError, match="unknown design"):
                    client.act(state, design="nope")
                # The ERROR reply must not poison the connection.
                assert client.act(state) == agent.act(state, explore=False)

    def test_wrong_state_width_rejected(self, agents):
        with PolicyServer({"OS-ELM": _clone(agents["OS-ELM"])}) as server:
            with PolicyClient(*server.address) as client:
                with pytest.raises(ServingError, match="state dims"):
                    client.act([0.0, 1.0])

    def test_unknown_frame_kind_gets_error_reply(self, agents):
        with PolicyServer({"OS-ELM": _clone(agents["OS-ELM"])}) as server:
            raw = _RawClient(server)
            raw.send("frobnicate", None)
            kind, reason = raw.recv()
            assert kind == protocol.ERROR
            assert "unknown frame kind" in reason
            raw.close()

    def test_malformed_frame_closes_connection_server_survives(self, agents):
        agent = agents["OS-ELM"]
        with PolicyServer({"OS-ELM": _clone(agent)}) as server:
            raw = _RawClient(server)
            body = pickle.dumps("not a (kind, payload) tuple")
            raw.sendall(struct.pack(">Q", len(body)) + body)
            raw.assert_closed_by_peer()
            raw.close()
            # The daemon must shrug the bad client off and keep serving.
            state = _probe_states(agent, 1)[0]
            with PolicyClient(*server.address) as client:
                assert client.act(state) == agent.act(state, explore=False)

    def test_oversized_frame_refused_before_allocation(self, agents):
        agent = agents["OS-ELM"]
        with PolicyServer({"OS-ELM": _clone(agent)},
                          max_frame_bytes=2048) as server:
            raw = _RawClient(server)
            raw.sendall(struct.pack(">Q", 1 << 30))  # hostile length header
            raw.assert_closed_by_peer()
            raw.close()
            state = _probe_states(agent, 1)[0]
            with PolicyClient(*server.address) as client:
                assert client.act(state) == agent.act(state, explore=False)

    def test_client_disconnect_mid_batch_spares_other_clients(self, agents):
        agent = agents["OS-ELM"]
        state = _probe_states(agent, 2, seed=3)
        with PolicyServer({"OS-ELM": _clone(agent)},
                          max_batch=4, max_wait_us=200_000) as server:
            doomed = _RawClient(server, "doomed")
            doomed.send(protocol.ACT, ("OS-ELM", state[0]))
            doomed.close()  # dies with its request still queued
            with PolicyClient(*server.address) as survivor:
                # Lands in the same (partial) batch as the dead client's
                # request; the batch must dispatch and this reply arrive.
                assert survivor.act(state[1]) == agent.act(state[1],
                                                           explore=False)

    def test_swap_during_inflight_act_drops_nothing(self, agents):
        old = agents["OS-ELM"]
        new = make_design("OS-ELM", n_hidden=8, seed=321)
        state = _probe_states(old, 1, seed=4)[0]
        with PolicyServer({"OS-ELM": _clone(old)},
                          max_batch=8, max_wait_us=500_000) as server:
            inflight = _RawClient(server, "inflight")
            inflight.send(protocol.ACT, ("OS-ELM", state))
            with PolicyClient(*server.address) as pusher:
                info = pusher.swap(_clone(new))
                assert info == {"design": "OS-ELM", "generation": 1}
            # The queued request must still be answered — and the swap lands
            # before its batch's max_wait deadline, so on the new weights.
            kind, action = inflight.recv()
            assert kind == protocol.ACTION
            assert action == new.act(state, explore=False)
            inflight.close()

    def test_swap_rejects_non_agent_blob(self, agents):
        agent = agents["OS-ELM"]
        with PolicyServer({"OS-ELM": _clone(agent)}) as server:
            with PolicyClient(*server.address) as client:
                with pytest.raises(ServingError, match="swap rejected"):
                    client.swap("not an agent")
                state = _probe_states(agent, 1)[0]
                assert client.act(state) == agent.act(state, explore=False)

    def test_swap_can_add_a_new_design(self, agents):
        extra = make_design("ELM", n_hidden=8, seed=11)
        with PolicyServer({"OS-ELM": _clone(agents["OS-ELM"])}) as server:
            with PolicyClient(*server.address) as client:
                info = client.swap(_clone(extra), design="ELM")
                assert info["generation"] == 1
                state = _probe_states(extra, 1, seed=9)[0]
                assert client.act(state, design="ELM") == extra.act(
                    state, explore=False)
            assert server.designs() == ["ELM", "OS-ELM"]

    def test_stats_reports_latency_percentiles(self, agents):
        agent = agents["OS-ELM"]
        with PolicyServer({"OS-ELM": _clone(agent)},
                          max_batch=4, max_wait_us=1000) as server:
            with PolicyClient(*server.address) as client:
                client.act_many(_probe_states(agent, 12))
                stats = client.stats()
        assert stats["repro_version"]
        assert stats["designs"]["OS-ELM"]["requests"] == 12
        assert stats["designs"]["OS-ELM"]["generation"] == 0
        latency = stats["metrics"]["histograms"]["serving.request_latency_seconds"]
        assert latency["count"] == 12
        for percentile in ("p50", "p90", "p99"):
            assert latency[percentile] >= 0.0
        batches = stats["metrics"]["histograms"]["serving.batch_size"]
        assert batches["count"] >= 3  # 12 requests through max_batch=4

    def test_client_refuses_a_sweep_broker_peer(self):
        spec = SweepSpec(designs=("OS-ELM-L2",), n_seeds=1, n_hidden=8,
                         training=TrainingConfig(max_episodes=3), root_seed=99)
        with SweepBroker(spec.tasks()) as broker:
            host, port = broker.address
            with pytest.raises(ServingError, match="not a policy server"):
                PolicyClient(host, port)


# ------------------------------------------------------------------ byte identity
class TestByteIdentity:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_served_equals_offline_greedy(self, agents, design):
        agent = agents[design]
        states = _probe_states(agent, 24, seed=1)
        offline = _offline_greedy(agent, states)
        with PolicyServer({design: _clone(agent)},
                          max_batch=8, max_wait_us=2000) as server:
            results = {}

            def drive(name):
                with PolicyClient(*server.address) as client:
                    results[name] = client.act_many(states)

            threads = [threading.Thread(target=drive, args=(i,))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        assert set(results) == {0, 1}
        for served in results.values():
            np.testing.assert_array_equal(served, offline)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_byte_identity_survives_hot_swap(self, agents, design):
        fresh = make_design(design, n_hidden=8, seed=555)
        states = _probe_states(fresh, 16, seed=2)
        with PolicyServer({design: _clone(agents[design])},
                          max_batch=8, max_wait_us=2000) as server:
            with PolicyClient(*server.address) as client:
                info = client.swap(_clone(fresh))
                assert info["generation"] == 1
                np.testing.assert_array_equal(client.act_many(states),
                                              _offline_greedy(fresh, states))


# ------------------------------------------------------------------ weight pushes
class TestWeightPushCallback:
    def test_rejects_bad_cadence(self):
        with pytest.raises(ValueError, match="every"):
            WeightPushCallback("127.0.0.1:1", every=0)

    def test_pushes_land_and_final_weights_serve(self):
        stale = make_design("OS-ELM", n_hidden=8, seed=5)
        with PolicyServer({"OS-ELM": stale}) as server:
            host, port = server.address
            callback = WeightPushCallback(f"{host}:{port}", every=2,
                                          strict=True)
            trained = make_design("OS-ELM", n_hidden=8, seed=6)
            Trainer(callbacks=[callback]).fit(
                trained, config=TrainingConfig(max_episodes=5))
            callback.close()
            # episodes 2 and 4, plus the unconditional end-of-training push
            assert callback.pushes == 3
            assert callback.failed_pushes == 0
            states = _probe_states(trained, 12, seed=8)
            with PolicyClient(host, port) as client:
                np.testing.assert_array_equal(
                    client.act_many(states), _offline_greedy(trained, states))
                generation = client.stats()["designs"]["OS-ELM"]["generation"]
        assert generation == callback.pushes

    def test_lenient_mode_survives_a_dead_server(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        callback = WeightPushCallback(("127.0.0.1", dead_port), every=1)
        agent = make_design("OS-ELM", n_hidden=8, seed=13)
        result = Trainer(callbacks=[callback]).fit(
            agent, config=TrainingConfig(max_episodes=2))
        assert result.episodes == 2  # training survived every failed push
        assert callback.pushes == 0
        assert callback.failed_pushes >= 1

    def test_strict_mode_raises(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        callback = WeightPushCallback(("127.0.0.1", dead_port), every=1,
                                      strict=True)
        with pytest.raises(ServingError, match="cannot reach policy server"):
            Trainer(callbacks=[callback]).fit(
                make_design("OS-ELM", n_hidden=8, seed=13),
                config=TrainingConfig(max_episodes=2))


# ---------------------------------------------------------------- frame size guard
class TestFrameSizeGuard:
    def _framed_roundtrip(self, payload, **recv_kwargs):
        left, right = socket.socketpair()
        try:
            protocol.send_message(left, "kind", payload)
            return protocol.recv_message(right, **recv_kwargs)
        finally:
            left.close()
            right.close()

    def test_explicit_limit_enforced(self):
        with pytest.raises(protocol.ProtocolError, match="exceeds the 1024-byte"):
            self._framed_roundtrip(b"x" * 100_000, max_frame_bytes=1024)
        kind, payload = self._framed_roundtrip(b"small", max_frame_bytes=1024)
        assert (kind, payload) == ("kind", b"small")

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            self._framed_roundtrip(b"x", max_frame_bytes=0)

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(protocol.MAX_FRAME_ENV_VAR, "64")
        assert protocol.default_max_frame_bytes() == 64
        with pytest.raises(protocol.ProtocolError, match="64-byte limit"):
            self._framed_roundtrip(b"y" * 4096)

    @pytest.mark.parametrize("bad", ["not-a-number", "0", "-5"])
    def test_env_var_validated(self, monkeypatch, bad):
        monkeypatch.setenv(protocol.MAX_FRAME_ENV_VAR, bad)
        with pytest.raises(ValueError, match="positive integer"):
            protocol.default_max_frame_bytes()

    def test_env_var_unset_gives_default(self, monkeypatch):
        monkeypatch.delenv(protocol.MAX_FRAME_ENV_VAR, raising=False)
        assert protocol.default_max_frame_bytes() == protocol.MAX_FRAME_BYTES

    def test_broker_drops_oversized_frames(self):
        spec = SweepSpec(designs=("OS-ELM-L2",), n_seeds=1, n_hidden=8,
                         training=TrainingConfig(max_episodes=3), root_seed=99)
        with SweepBroker(spec.tasks(), max_frame_bytes=256) as broker:
            host, port = broker.address
            hostile = socket.create_connection((host, port), timeout=5.0)
            protocol.send_message(hostile, protocol.HELLO,
                                  {"id": "x" * 4096, "version": repro.__version__})
            hostile.settimeout(5.0)
            try:
                assert hostile.recv(1) == b""
            except ConnectionError:
                pass
            hostile.close()
            # A well-behaved worker still registers afterwards.
            polite = socket.create_connection((host, port), timeout=5.0)
            assert protocol.hello(polite, "polite")["tasks"] == 1
            polite.close()
