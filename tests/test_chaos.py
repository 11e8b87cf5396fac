"""Chaos tests: deterministic fault injection + SIGKILL broker recovery.

`TestFaultPlan` pins the fault-injection machinery itself (a chaos harness
that silently injects nothing would make every "survived the chaos" test
vacuous).  `TestWorkerReconnect` drives a real ``run_worker`` loop through
dropped connections against an in-process broker.  `TestChaosEndToEnd` is
the headline scenario: a journaled broker subprocess SIGKILLed mid-sweep,
restarted from its journal, with workers reconnecting through injected
faults — and the summary CSV byte-identical to the serial backend's.
"""

import socket
import threading
import time

import pytest

from repro import telemetry
from repro.api import Budget, ExperimentSpec, run
from repro.chaos import (
    BrokerHarness,
    FaultPlan,
    FaultyConnectionError,
    free_port,
    run_workers_through,
)
from repro.distributed import protocol
from repro.distributed.broker import SweepBroker
from repro.distributed.journal import SweepJournal
from repro.distributed.worker import WorkerOptions, run_worker
from repro.parallel.sweep import SweepSpec
from repro.training import TrainingConfig
from repro.utils.retry import RetryError, RetryPolicy


def _tiny_tasks(n_seeds=2):
    spec = SweepSpec(designs=("OS-ELM-L2",), n_seeds=n_seeds, n_hidden=8,
                     training=TrainingConfig(max_episodes=3), root_seed=99)
    return spec.tasks()


def _pair(plan):
    """A socketpair with the left end wrapped by ``plan``."""
    left, right = socket.socketpair()
    return plan.wrap(left), right


class TestFaultPlan:
    def test_spec_roundtrip(self):
        plan = FaultPlan.from_spec("drop_after_frames=8,drop_every=5,seed=7")
        assert plan.drop_after_frames == 8
        assert plan.drop_every == 5
        assert plan.seed == 7
        assert FaultPlan.from_spec(plan.to_spec()) == plan
        assert FaultPlan.from_spec("") == FaultPlan()

    def test_spec_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="accepted keys"):
            FaultPlan.from_spec("drop_frames=3")

    def test_validation(self):
        with pytest.raises(ValueError, match="drop_after_frames"):
            FaultPlan(drop_after_frames=-1)
        with pytest.raises(ValueError, match="delay_seconds"):
            FaultPlan(delay_seconds=-0.1)

    def test_default_plan_is_transparent(self):
        plan = FaultPlan()
        wrapped, right = _pair(plan)
        try:
            for index in range(20):
                protocol.send_message(wrapped, protocol.HEARTBEAT, index)
                kind, payload = protocol.recv_message(right)
                assert kind == protocol.HEARTBEAT and payload == index
        finally:
            wrapped.close()
            right.close()
        snap = plan.snapshot()
        assert snap["connections_established"] == 1
        assert snap["connections_dropped"] == 0
        assert snap["frames_truncated"] == 0

    def test_drop_after_frames_severs_the_connection(self):
        plan = FaultPlan(drop_after_frames=2)
        wrapped, right = _pair(plan)
        try:
            protocol.send_message(wrapped, protocol.GET, None)
            protocol.send_message(wrapped, protocol.GET, None)
            with pytest.raises(FaultyConnectionError, match="dropped"):
                protocol.send_message(wrapped, protocol.GET, None)
            # The connection stays dead; it does not resurrect.
            with pytest.raises(FaultyConnectionError):
                wrapped.sendall(b"zombie")
            # The peer sees a clean EOF after the two delivered frames.
            assert protocol.recv_message(right)[0] == protocol.GET
            assert protocol.recv_message(right)[0] == protocol.GET
            with pytest.raises(ConnectionError):
                protocol.recv_message(right)
        finally:
            right.close()
        assert plan.snapshot()["connections_dropped"] == 1

    def test_drop_every_affects_only_matching_connections(self):
        plan = FaultPlan(drop_after_frames=1, drop_every=2)
        first, first_peer = _pair(plan)     # connection 1: unaffected
        second, second_peer = _pair(plan)   # connection 2: drops
        try:
            for _ in range(5):
                protocol.send_message(first, protocol.HEARTBEAT)
            protocol.send_message(second, protocol.HEARTBEAT)
            with pytest.raises(FaultyConnectionError):
                protocol.send_message(second, protocol.HEARTBEAT)
        finally:
            first.close()
            first_peer.close()
            second_peer.close()

    def test_truncation_leaves_peer_a_partial_frame(self):
        """The peer of a truncated frame observes EOF mid-frame — a plain
        ConnectionError (outage), never a ProtocolError (violation)."""
        plan = FaultPlan(truncate_after_frames=1)
        wrapped, right = _pair(plan)
        try:
            with pytest.raises(FaultyConnectionError, match="truncated"):
                protocol.send_message(wrapped, protocol.RESULT,
                                      (0, "x" * 256, "distributed"))
            with pytest.raises(ConnectionError) as caught:
                protocol.recv_message(right)
            assert not isinstance(caught.value, protocol.ProtocolError)
        finally:
            right.close()
        assert plan.snapshot()["frames_truncated"] == 1

    def test_refuse_connects_then_allows(self):
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(2)
        host, port = server.getsockname()[:2]
        plan = FaultPlan(refuse_connects=2)
        try:
            for _ in range(2):
                with pytest.raises(ConnectionRefusedError, match="fault plan"):
                    plan.connect(host, port, 2.0)
            sock = plan.connect(host, port, 2.0)
            sock.close()
        finally:
            server.close()
        snap = plan.snapshot()
        assert snap["connects_attempted"] == 3
        assert snap["connects_refused"] == 2
        assert snap["connections_established"] == 1

    def test_jittered_drop_frames_are_seed_deterministic(self):
        def drop_schedule(seed):
            plan = FaultPlan(seed=seed, drop_after_frames=64,
                             jitter_frames=True)
            schedule = []
            for _ in range(6):
                wrapped, right = _pair(plan)
                schedule.append(wrapped._drop_at)
                wrapped.close()
                right.close()
            return schedule

        assert drop_schedule(7) == drop_schedule(7)
        assert drop_schedule(7) != drop_schedule(8)   # 64^6 odds of collision


class TestWorkerReconnect:
    def test_worker_reconnects_through_dropped_connections(self):
        """Every connection dies after 6 frames; the worker still drains the
        grid by reconnecting, redelivering stranded results on the way."""
        plan = FaultPlan(drop_after_frames=6)
        policy = RetryPolicy(max_attempts=10, base_delay=0.01, max_delay=0.1)
        telemetry.enable()
        try:
            with SweepBroker(_tiny_tasks(3)) as broker:
                host, port = broker.address
                completed = run_worker(
                    host, port,
                    WorkerOptions(worker_id="phoenix", handle_signals=False,
                                  reconnect=policy, idle_timeout=10.0,
                                  connect_factory=plan.connect))
                assert broker.join(timeout=5.0)
                assert completed == 3
                assert broker.worker_reconnections >= 1
                assert broker.stats_snapshot()["counters"][
                    "worker_reconnections"] == broker.worker_reconnections
                # One worker identity throughout: no ghost workers accumulated.
                assert list(broker.workers_seen) == ["phoenix"]
            counters = telemetry.get_registry().snapshot()["counters"]
            assert counters["distributed.worker.reconnections"] >= 1
        finally:
            telemetry.disable()
            telemetry.reset()
        assert plan.snapshot()["connections_dropped"] >= 1

    def test_exhausted_policy_raises_retry_error(self):
        port = free_port()                   # nothing ever listens here
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)
        with pytest.raises(RetryError) as caught:
            run_worker("127.0.0.1", port,
                       WorkerOptions(worker_id="hopeless",
                                     handle_signals=False,
                                     connect_timeout=0.5, reconnect=policy))
        assert caught.value.attempts == 3

    def test_no_reconnect_policy_raises_on_first_connect_failure(self):
        port = free_port()
        with pytest.raises(OSError):
            run_worker("127.0.0.1", port,
                       WorkerOptions(worker_id="legacy",
                                     handle_signals=False,
                                     connect_timeout=0.5))

    def test_idle_timeout_unsticks_a_silent_broker(self):
        """A broker that WELCOMEs then never answers again must not hang the
        worker forever (a half-open connection would block without bound):
        the idle timeout routes into the reconnect path, which here exhausts
        quickly."""
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        host, port = server.getsockname()[:2]
        hold = []

        def silent_broker():
            connection, _ = server.accept()
            hold.append(connection)          # keep it open, answer HELLO only
            kind, _payload = protocol.recv_message(connection)
            assert kind == protocol.HELLO
            protocol.send_message(connection, protocol.WELCOME,
                                  protocol.welcome_info(tasks=1))

        thread = threading.Thread(target=silent_broker, daemon=True)
        thread.start()
        policy = RetryPolicy(max_attempts=2, base_delay=0.01)
        started = time.monotonic()
        try:
            with pytest.raises(RetryError):
                run_worker(host, port,
                           WorkerOptions(worker_id="unstuck",
                                         handle_signals=False,
                                         idle_timeout=0.3,
                                         connect_timeout=0.5,
                                         reconnect=policy))
        finally:
            server.close()
            for connection in hold:
                connection.close()
        # Bounded exit: one 0.3s idle timeout + a short retry, not a hang.
        assert time.monotonic() - started < 10.0
        thread.join(timeout=2.0)


class TestChaosEndToEnd:
    def test_sigkilled_broker_resumes_byte_identical(self, tmp_path):
        """The headline crash-safety guarantee, end to end: SIGKILL the
        journaled broker mid-sweep, restart it on the same journal and port,
        let workers reconnect through injected connection drops, and the
        finished sweep's summary CSV is byte-identical to the serial
        backend's — zero lost tasks, zero duplicated rows."""
        spec = ExperimentSpec(name="chaos-e2e", designs=("OS-ELM-L2",),
                              hidden_sizes=(8,), n_seeds=6,
                              budget=Budget(max_episodes=5))
        reference = run(spec, backend="serial",
                        out=str(tmp_path / "ref-store"))
        reference_csv = reference.summary_csv()

        journal = tmp_path / "sweep.journal"
        chaos_store = tmp_path / "chaos-store"
        # Every connection dies after 4 frames — enough for at least one
        # result per connection (HELLO + GET + RESULT), so progress is
        # guaranteed and so is at least one drop before the short grid
        # drains.  The per-outage deadline spans the broker restart gap but
        # bounds the final retry storm once the drained broker exits.
        plan = FaultPlan(drop_after_frames=4, seed=7, delay_seconds=0.02)
        policy = RetryPolicy(max_attempts=60, base_delay=0.05, max_delay=0.5,
                             deadline=15.0)
        harness = BrokerHarness(spec.tasks(), journal_path=journal,
                                store_root=chaos_store,
                                heartbeat_timeout=5.0)
        with harness:
            workers = run_workers_through(
                harness, 2,
                make_options=lambda i: WorkerOptions(
                    worker_id=f"chaos-{i}", handle_signals=False,
                    reconnect=policy, idle_timeout=10.0,
                    heartbeat_interval=0.5, connect_factory=plan.connect))
            harness.wait_for_deliveries(1, timeout=120.0)
            harness.kill()                   # SIGKILL: no flush, no goodbye
            harness.start()                  # replays the journal, same port
            harness.wait_until_exit(timeout=180.0)
            for worker in workers:
                worker.join(timeout=60.0)
                assert not worker.alive
                # A worker may exhaust its retries racing the broker's final
                # exit; any other failure is a real bug.
                if worker.error is not None:
                    assert isinstance(worker.error, RetryError), worker.error

        assert harness.starts == 2 and harness.kills == 1
        assert SweepJournal(journal).load().sessions >= 2
        assert plan.snapshot()["connections_dropped"] >= 1

        # cache_only raises if even one trial is missing from the store:
        # this single call is the zero-lost-tasks assertion.
        recovered = run(spec, backend="serial", out=str(chaos_store),
                        cache_only=True)
        assert recovered.summary_csv() == reference_csv
        assert all(record.backend_used == "distributed"
                   for record in recovered.trials)
