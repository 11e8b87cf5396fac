"""Protocol-level tests of the sweep broker: leases, requeue, dedup.

These tests drive :class:`~repro.distributed.broker.SweepBroker` with raw
scripted sockets instead of real workers, so every fault the fleet can
throw at the broker — a worker killed mid-trial (dropped connection), a
silently hung worker (lease expiry), a task delivered twice — is exercised
deterministically, without real training or process juggling.
"""

import json
import socket
import threading
import time

import pytest

import repro
from repro.distributed import protocol
from repro.distributed.broker import SweepBroker
from repro.distributed.coordinator import run_distributed_sweep
from repro.parallel.sweep import SweepSpec
from repro.telemetry.fleet import (
    FleetStatusError,
    fetch_fleet_stats,
    format_fleet_status,
)
from repro.training import TrainingConfig


def _tiny_tasks(n_seeds=2):
    spec = SweepSpec(designs=("OS-ELM-L2",), n_seeds=n_seeds, n_hidden=8,
                     training=TrainingConfig(max_episodes=3), root_seed=99)
    return spec.tasks()


class _ScriptedWorker:
    """A bare socket speaking the worker protocol, one frame at a time."""

    def __init__(self, broker, worker_id="scripted"):
        host, port = broker.address
        self.sock = socket.create_connection((host, port), timeout=5.0)
        self.welcome_info = protocol.hello(self.sock, worker_id)
        self.announced_tasks = self.welcome_info["tasks"]

    def get(self, capacity=1):
        """GET with an advertised lease capacity."""
        protocol.send_message(self.sock, protocol.GET, capacity)
        return protocol.recv_message(self.sock)

    def stats(self):
        """Request one STATS snapshot over this connection."""
        protocol.send_message(self.sock, protocol.STATS)
        kind, snapshot = protocol.recv_message(self.sock)
        assert kind == protocol.STATS
        return snapshot

    def send_result(self, index, result="result", backend="distributed"):
        protocol.send_message(self.sock, protocol.RESULT,
                              (index, result, backend))
        kind, fresh = protocol.recv_message(self.sock)
        assert kind == protocol.ACK
        return fresh

    def heartbeat(self):
        protocol.send_message(self.sock, protocol.HEARTBEAT)

    def close(self):
        self.sock.close()


def _wait_until(predicate, timeout=5.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


class TestBrokerProtocol:
    def test_empty_grid_is_born_finished(self):
        broker = SweepBroker([])
        assert broker.join(timeout=0.1)
        assert broker.results() == []
        # The coordinator shortcut never binds a socket for an empty grid.
        assert run_distributed_sweep([]) == []

    def test_tasks_served_in_order_then_shutdown(self):
        with SweepBroker(_tiny_tasks(2)) as broker:
            worker = _ScriptedWorker(broker)
            assert worker.announced_tasks == 2
            for expected_index in (0, 1):
                kind, [(index, task)] = worker.get()
                assert kind == protocol.TASKS and index == expected_index
                assert worker.send_result(index, result=f"r{index}") is True
            kind, _ = worker.get()
            assert kind == protocol.SHUTDOWN
            assert broker.join(timeout=1.0)
            assert [r for r, _ in broker.results()] == ["r0", "r1"]
            worker.close()

    def test_results_raises_while_incomplete(self):
        with SweepBroker(_tiny_tasks(2)) as broker:
            with pytest.raises(RuntimeError, match="incomplete"):
                broker.results()

    def test_worker_crash_mid_trial_requeues_task(self):
        """A dropped connection (kill -9 equivalent) returns the lease."""
        with SweepBroker(_tiny_tasks(1)) as broker:
            doomed = _ScriptedWorker(broker, "doomed")
            kind, [(index, _)] = doomed.get()
            assert kind == protocol.TASKS and index == 0
            doomed.close()                       # dies holding the lease
            _wait_until(lambda: broker.requeued_tasks == 1,
                        message="disconnect requeue")
            survivor = _ScriptedWorker(broker, "survivor")
            kind, [(index, _)] = survivor.get()
            assert kind == protocol.TASKS and index == 0   # same task again
            assert survivor.send_result(0) is True
            assert broker.join(timeout=1.0)
            survivor.close()

    def test_silent_worker_lease_expires(self):
        """A hung worker (connected, no heartbeats) loses its lease."""
        with SweepBroker(_tiny_tasks(1), heartbeat_timeout=0.3) as broker:
            hung = _ScriptedWorker(broker, "hung")
            kind, [(index, _)] = hung.get()
            assert kind == protocol.TASKS
            _wait_until(lambda: broker.requeued_tasks == 1, timeout=3.0,
                        message="lease expiry")
            survivor = _ScriptedWorker(broker, "survivor")
            kind, [(index, _)] = survivor.get()
            assert kind == protocol.TASKS and index == 0
            survivor.send_result(0)
            assert broker.join(timeout=1.0)
            hung.close()
            survivor.close()

    def test_heartbeats_keep_a_slow_trial_leased(self):
        with SweepBroker(_tiny_tasks(1), heartbeat_timeout=0.4) as broker:
            worker = _ScriptedWorker(broker)
            kind, [(index, _)] = worker.get()
            assert kind == protocol.TASKS
            for _ in range(10):                  # 1s of training, beating at 0.1s
                time.sleep(0.1)
                worker.heartbeat()
            assert broker.requeued_tasks == 0
            worker.send_result(index)
            assert broker.join(timeout=1.0)
            worker.close()

    def test_duplicate_result_delivery_is_deduped(self):
        """First delivery wins; the duplicate is acked but dropped."""
        with SweepBroker(_tiny_tasks(1), heartbeat_timeout=0.2) as broker:
            slow = _ScriptedWorker(broker, "slow")
            kind, [(index, _)] = slow.get()
            assert kind == protocol.TASKS
            _wait_until(lambda: broker.requeued_tasks == 1, timeout=3.0,
                        message="lease expiry")   # slow looks dead; task requeued
            fast = _ScriptedWorker(broker, "fast")
            kind, [(index, _)] = fast.get()
            assert kind == protocol.TASKS and index == 0
            assert fast.send_result(0, result="first") is True
            # ...now the "dead" worker wakes up and delivers anyway.
            assert slow.send_result(0, result="second") is False
            assert broker.duplicate_results == 1
            assert [r for r, _ in broker.results()] == ["first"]
            slow.close()
            fast.close()

    def test_late_result_after_expiry_is_not_retrained(self):
        """An expired-then-delivered task must leave the requeued copy dead:
        the next GET sees SHUTDOWN, not a pointless re-lease."""
        with SweepBroker(_tiny_tasks(1), heartbeat_timeout=0.2) as broker:
            slow = _ScriptedWorker(broker, "slow")
            kind, [(index, _)] = slow.get()
            assert kind == protocol.TASKS
            _wait_until(lambda: broker.requeued_tasks == 1, timeout=3.0,
                        message="lease expiry")
            # The original holder delivers anyway — still the first result.
            assert slow.send_result(0, result="late-but-first") is True
            assert broker.join(timeout=1.0)
            other = _ScriptedWorker(broker, "other")
            kind, _ = other.get()
            assert kind == protocol.SHUTDOWN     # requeued copy was dropped
            assert [r for r, _ in broker.results()] == ["late-but-first"]
            slow.close()
            other.close()

    def test_stale_holder_disconnect_keeps_reissued_lease(self):
        """After a lease expires and is re-issued, the original holder's
        disconnect must not yank the new holder's lease."""
        with SweepBroker(_tiny_tasks(1), heartbeat_timeout=0.2) as broker:
            stale = _ScriptedWorker(broker, "stale")
            kind, [(index, _)] = stale.get()
            assert kind == protocol.TASKS
            _wait_until(lambda: broker.requeued_tasks == 1, timeout=3.0,
                        message="lease expiry")
            current = _ScriptedWorker(broker, "current")
            kind, [(index, _)] = current.get()
            assert kind == protocol.TASKS and index == 0
            stale.close()                        # must not requeue task 0 again
            time.sleep(0.1)
            assert broker.requeued_tasks == 1
            # current keeps beating, finishes, and the result is fresh.
            current.heartbeat()
            assert current.send_result(0) is True
            assert broker.join(timeout=1.0)
            current.close()

    def test_wait_frame_when_all_tasks_leased(self):
        with SweepBroker(_tiny_tasks(1)) as broker:
            holder = _ScriptedWorker(broker, "holder")
            kind, _ = holder.get()
            assert kind == protocol.TASKS
            idle = _ScriptedWorker(broker, "idle")
            kind, seconds = idle.get()
            assert kind == protocol.WAIT and seconds > 0
            holder.send_result(0)
            kind, _ = idle.get()
            assert kind == protocol.SHUTDOWN
            holder.close()
            idle.close()

    def test_callback_streams_fresh_results_only(self):
        seen = []
        tasks = _tiny_tasks(2)
        with SweepBroker(tasks, callback=lambda t, r: seen.append((t.trial, r))
                         ) as broker:
            worker = _ScriptedWorker(broker)
            for index in (0, 1):
                worker.get()
                worker.send_result(index, result=f"r{index}")
            worker.send_result(1, result="dup")     # duplicate: no callback
            assert broker.join(timeout=1.0)
            worker.close()
        assert seen == [(0, "r0"), (1, "r1")]


class TestProtocolHelpers:
    def test_parse_address(self):
        assert protocol.parse_address("10.0.0.1:5555") == ("10.0.0.1", 5555)
        with pytest.raises(ValueError, match="HOST:PORT"):
            protocol.parse_address("5555")
        with pytest.raises(ValueError):
            protocol.parse_address("host:not-a-port")

    def test_oversized_frame_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall((protocol.MAX_FRAME_BYTES + 1).to_bytes(8, "big"))
            with pytest.raises(protocol.ProtocolError, match="exceeds the"):
                protocol.recv_message(right)
        finally:
            left.close()
            right.close()

    def test_eof_mid_payload_raises_connection_error(self):
        """Peer dies after the length header but before the payload ends."""
        left, right = socket.socketpair()
        try:
            left.sendall((100).to_bytes(8, "big") + b"short")
            left.close()
            with pytest.raises(ConnectionError) as caught:
                protocol.recv_message(right)
            # An outage, not a wire violation: reconnect loops must retry it.
            assert not isinstance(caught.value, protocol.ProtocolError)
        finally:
            right.close()

    def test_eof_mid_length_header_raises_connection_error(self):
        """Peer dies inside the 8-byte length prefix itself."""
        left, right = socket.socketpair()
        try:
            left.sendall((100).to_bytes(8, "big")[:3])
            left.close()
            with pytest.raises(ConnectionError) as caught:
                protocol.recv_message(right)
            assert not isinstance(caught.value, protocol.ProtocolError)
        finally:
            right.close()


class TestLeaseBatching:
    def test_lease_batch_serves_k_tasks_per_get(self):
        with SweepBroker(_tiny_tasks(3), lease_batch=2) as broker:
            worker = _ScriptedWorker(broker)
            kind, leased = worker.get(capacity=8)
            assert kind == protocol.TASKS
            assert [index for index, _ in leased] == [0, 1]
            # Each leased task is an independent lease with its own result.
            assert worker.send_result(0, result="r0") is True
            assert worker.send_result(1, result="r1") is True
            kind, leased = worker.get(capacity=8)  # tail batch may be short
            assert kind == protocol.TASKS
            assert [index for index, _ in leased] == [2]
            assert worker.send_result(2, result="r2") is True
            kind, _ = worker.get(capacity=8)
            assert kind == protocol.SHUTDOWN
            assert [r for r, _ in broker.results()] == ["r0", "r1", "r2"]
            worker.close()

    @pytest.mark.parametrize("capacity", [None, 0, "8", True, {"capacity": 8}],
                             ids=["none", "zero", "str", "bool", "dict"])
    def test_get_payload_must_be_a_positive_int(self, capacity):
        """Sockets are untrusted input: any GET payload but a positive int is
        a protocol violation — the broker drops the connection and leases
        nothing."""
        with SweepBroker(_tiny_tasks(1), lease_batch=4) as broker:
            worker = _ScriptedWorker(broker, worker_id="garbled")
            protocol.send_message(worker.sock, protocol.GET, capacity)
            worker.sock.settimeout(5.0)
            with pytest.raises(ConnectionError):
                protocol.recv_message(worker.sock)
            assert broker.stats_snapshot()["tasks"]["queued"] == 1
            worker.close()

    def test_capacity_caps_batch_below_broker_lease_batch(self):
        with SweepBroker(_tiny_tasks(3), lease_batch=3) as broker:
            worker = _ScriptedWorker(broker)
            kind, leased = worker.get(capacity=2)
            assert kind == protocol.TASKS and len(leased) == 2
            for index, _ in leased:
                worker.send_result(index, result=f"r{index}")
            kind, [(index, _task)] = worker.get(capacity=1)   # single-task request
            assert kind == protocol.TASKS
            worker.send_result(index, result="r-last")
            assert broker.join(timeout=1.0)
            worker.close()

    def test_lease_batch_one_leases_one_task_per_get(self):
        with SweepBroker(_tiny_tasks(2), lease_batch=1) as broker:
            worker = _ScriptedWorker(broker)
            kind, [(index, _task)] = worker.get(capacity=8)
            assert kind == protocol.TASKS and index == 0
            worker.send_result(index, result="r0")
            kind, [(index, _task)] = worker.get(capacity=8)
            worker.send_result(index, result="r1")
            worker.close()
            assert broker.join(timeout=1.0)

    def test_worker_death_mid_batch_requeues_unfinished_leases(self):
        with SweepBroker(_tiny_tasks(3), lease_batch=3) as broker:
            doomed = _ScriptedWorker(broker, worker_id="doomed")
            kind, leased = doomed.get(capacity=8)
            assert kind == protocol.TASKS and len(leased) == 3
            doomed.send_result(0, result="done-before-death")
            doomed.close()                          # dies holding tasks 1, 2
            _wait_until(lambda: broker.requeued_tasks == 2,
                        message="unfinished leases requeued")
            survivor = _ScriptedWorker(broker, worker_id="survivor")
            kind, leased = survivor.get(capacity=8)
            assert kind == protocol.TASKS
            assert {index for index, _ in leased} == {1, 2}
            for index, _ in leased:
                survivor.send_result(index, result=f"retry-{index}")
            assert broker.join(timeout=1.0)
            results = [r for r, _ in broker.results()]
            assert results == ["done-before-death", "retry-1", "retry-2"]
            survivor.close()

    def test_lease_batch_validation(self):
        with pytest.raises(ValueError, match="lease_batch"):
            SweepBroker(_tiny_tasks(1), lease_batch=0)

    def test_stats_requests_interleave_with_lease_batches(self):
        """STATS is just another frame on the worker connection — it must
        not disturb in-flight leases or batch accounting."""
        with SweepBroker(_tiny_tasks(3), lease_batch=2) as broker:
            worker = _ScriptedWorker(broker)
            kind, leased = worker.get(capacity=8)
            assert kind == protocol.TASKS and len(leased) == 2
            snap = worker.stats()
            assert snap["tasks"]["leased"] == 2
            assert snap["lease_batch"] == 2
            for index, _ in leased:
                worker.send_result(index, result=f"r{index}")
            kind, leased = worker.get(capacity=8)
            assert kind == protocol.TASKS and len(leased) == 1
            worker.send_result(leased[0][0], result="r2")
            assert broker.join(timeout=1.0)
            worker.close()

    def test_end_to_end_lease_batched_sweep_matches_serial(self):
        """Real worker fleet pulling k=2 task batches converges to the
        bit-identical serial outcome (the worker executes each task through
        the unchanged serial trainer)."""
        import numpy as np

        from repro.parallel.sweep import SweepRunner

        spec = SweepSpec(designs=("OS-ELM-L2",), n_seeds=3, n_hidden=8,
                         training=TrainingConfig(max_episodes=4), root_seed=31)
        serial = SweepRunner(spec, backend="serial").run()
        batched = SweepRunner(spec, backend="distributed", max_workers=2,
                              lease_batch=2).run()
        assert set(batched.backends_used) == {"distributed"}
        for serial_result, dist_result in zip(serial.results_for(),
                                              batched.results_for()):
            np.testing.assert_array_equal(serial_result.curve.steps,
                                          dist_result.curve.steps)


class TestStatsChannel:
    """The STATS frame + `repro fleet status` client, wire level."""

    def test_welcome_carries_version_and_no_capability_flags(self):
        with SweepBroker(_tiny_tasks(1)) as broker:
            worker = _ScriptedWorker(broker)
            assert worker.welcome_info == {"tasks": 1,
                                           "version": repro.__version__}
            worker.close()

    def test_stats_on_untouched_grid(self):
        with SweepBroker(_tiny_tasks(3)) as broker:
            worker = _ScriptedWorker(broker)
            snap = worker.stats()
            assert snap["tasks"] == {"total": 3, "queued": 3,
                                     "leased": 0, "done": 0}
            assert snap["repro_version"]
            assert snap["heartbeat_timeout"] == broker.heartbeat_timeout
            # The snapshot is the fleet-status JSON document: serializable.
            json.dumps(snap)
            worker.close()

    def test_stats_on_empty_grid(self):
        """An empty grid is legal (the broker is born finished) and its
        snapshot reconciles to all-zeros rather than crashing."""
        with SweepBroker([]) as broker:
            worker = _ScriptedWorker(broker)
            snap = worker.stats()
            assert snap["tasks"] == {"total": 0, "queued": 0,
                                     "leased": 0, "done": 0}
            worker.close()

    def test_stats_while_all_tasks_leased(self):
        with SweepBroker(_tiny_tasks(2)) as broker:
            holder = _ScriptedWorker(broker, "holder")
            holder.get()
            holder.get()
            snap = holder.stats()
            assert snap["tasks"] == {"total": 2, "queued": 0,
                                     "leased": 2, "done": 0}
            row = snap["workers"]["holder"]
            assert row["connected"] is True
            assert row["leases"] == 2
            assert row["oldest_lease_age"] >= 0.0
            assert row["completed"] == 0
            holder.close()

    def test_reconciliation_invariant_through_lifecycle(self):
        """queued + leased + done == total at every stage of a sweep."""
        with SweepBroker(_tiny_tasks(3)) as broker:
            worker = _ScriptedWorker(broker, "w")

            def tasks():
                snap = worker.stats()["tasks"]
                assert (snap["queued"] + snap["leased"] + snap["done"]
                        == snap["total"] == 3)
                return snap

            assert tasks()["queued"] == 3
            worker.get()
            assert tasks()["leased"] == 1
            worker.send_result(0, result="r0")
            stage = tasks()
            assert stage["done"] == 1 and stage["leased"] == 0
            worker.get()
            worker.get()
            assert tasks()["leased"] == 2
            worker.send_result(1, result="r1")
            worker.send_result(2, result="r2")
            final = tasks()
            assert final["done"] == 3 and final["queued"] == 0
            assert worker.stats()["workers"]["w"]["completed"] == 3
            assert broker.join(timeout=1.0)
            worker.close()

    def test_wait_replies_counted(self):
        with SweepBroker(_tiny_tasks(1)) as broker:
            holder = _ScriptedWorker(broker, "holder")
            holder.get()
            idle = _ScriptedWorker(broker, "idle")
            kind, _ = idle.get()
            assert kind == protocol.WAIT
            assert idle.stats()["counters"]["wait_replies"] == 1
            holder.send_result(0)
            holder.close()
            idle.close()

    def test_disconnected_worker_marked_gone(self):
        with SweepBroker(_tiny_tasks(1)) as broker:
            doomed = _ScriptedWorker(broker, "doomed")
            doomed.get()
            doomed.close()
            _wait_until(lambda: broker.requeued_tasks == 1,
                        message="disconnect requeue")
            observer = _ScriptedWorker(broker)
            snap = observer.stats()
            row = snap["workers"]["doomed"]
            assert row["connected"] is False
            assert row["leases"] == 0            # lease went back to the queue
            assert snap["tasks"]["queued"] == 1
            assert snap["counters"]["requeued_tasks"] == 1
            observer.close()

    def test_observer_stays_out_of_worker_accounting(self):
        with SweepBroker(_tiny_tasks(1)) as broker:
            worker = _ScriptedWorker(broker, "real-worker")
            host, port = broker.address
            snap = fetch_fleet_stats(host, port)
            assert list(snap["workers"]) == ["real-worker"]
            assert snap["counters"]["workers_seen"] == 1
            assert not any(seen.startswith(protocol.OBSERVER_PREFIX)
                           for seen in broker.workers_seen)
            worker.close()

    def test_fetch_fleet_stats_unreachable_broker(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()                            # nothing listens here now
        with pytest.raises(FleetStatusError, match="cannot reach"):
            fetch_fleet_stats("127.0.0.1", port, timeout=0.5)

    def test_format_fleet_status_renders_workers_and_empty_fleet(self):
        with SweepBroker(_tiny_tasks(2)) as broker:
            empty = format_fleet_status(broker.stats_snapshot())
            assert "0/2 done" in empty
            assert "workers: none registered yet" in empty
            worker = _ScriptedWorker(broker, "w0")
            worker.get()
            text = format_fleet_status(broker.stats_snapshot())
            assert "w0" in text and "up" in text
            assert "1 leased" in text
            worker.close()

    def test_fleet_status_cli_json(self, capsys):
        from repro.api.cli import main

        with SweepBroker(_tiny_tasks(2)) as broker:
            host, port = broker.address
            assert main(["fleet", "status", "--connect",
                         f"{host}:{port}", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        tasks = snapshot["tasks"]
        assert (tasks["queued"] + tasks["leased"] + tasks["done"]
                == tasks["total"] == 2)

    def test_fleet_status_cli_errors(self, capsys):
        from repro.api.cli import main

        assert main(["fleet", "status", "--connect", "no-port-here"]) == 2
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["fleet", "status", "--connect",
                     f"127.0.0.1:{port}", "--timeout", "0.5"]) == 2
        assert "error:" in capsys.readouterr().err


class TestWorkerReconnectAccounting:
    """HELLO from a known worker id is a reconnection, not a new worker."""

    def test_rehello_preserves_identity_and_counts_reconnection(self):
        with SweepBroker(_tiny_tasks(2)) as broker:
            first = _ScriptedWorker(broker, "w0")
            first.get()
            assert first.send_result(0) is True
            first.close()
            _wait_until(lambda: not broker.stats_snapshot()["workers"]["w0"]
                        ["connected"], message="disconnect noticed")
            second = _ScriptedWorker(broker, "w0")   # same id: a reconnect
            assert broker.worker_reconnections == 1
            row = broker.stats_snapshot()["workers"]["w0"]
            assert row["connected"] is True
            assert row["completed"] == 1             # history preserved
            assert broker.stats_snapshot()["counters"]["workers_seen"] == 1
            second.close()

    def test_duplicate_result_from_reconnected_worker_is_deduped(self):
        """A worker dies holding a lease, someone else retrains the task,
        then the original worker reconnects and redelivers its stranded
        result — the exact redelivery race the worker reconnect loop creates."""
        with SweepBroker(_tiny_tasks(1)) as broker:
            original = _ScriptedWorker(broker, "flaky")
            kind, [(index, _task)] = original.get()
            assert kind == protocol.TASKS and index == 0
            original.close()                     # connection cut mid-trial
            _wait_until(lambda: broker.requeued_tasks == 1,
                        message="lease requeued")
            other = _ScriptedWorker(broker, "steady")
            kind, [(index, _task)] = other.get()
            assert kind == protocol.TASKS and index == 0
            assert other.send_result(0, result="retrained") is True
            # The flaky worker comes back under its old id and redelivers.
            revenant = _ScriptedWorker(broker, "flaky")
            assert revenant.send_result(0, result="stranded-copy") is False
            assert broker.duplicate_results == 1
            assert broker.worker_reconnections == 1
            assert [r for r, _ in broker.results()] == ["retrained"]
            other.close()
            revenant.close()


class TestDrainProtocol:
    """The DRAIN frame: graceful worker retirement."""

    def test_marked_worker_finishes_lease_then_gets_drain_frame(self):
        """The full choreography: mark -> deliver in-flight -> DRAIN -> exit,
        with zero requeued leases (the elastic-fleet contract)."""
        from repro.fleet import request_drain

        with SweepBroker(_tiny_tasks(3)) as broker:
            host, port = broker.address
            worker = _ScriptedWorker(broker, "w0")
            kind, [(index, _task)] = worker.get()
            assert kind == protocol.TASKS and index == 0
            report = request_drain(host, port, ["w0"])
            assert report == {"marked": ["w0"], "already_draining": [],
                              "unknown": [], "gone": []}
            # In-flight result still lands normally after the mark...
            assert worker.send_result(0) is True
            # ...and the next GET is the retirement order, not a lease.
            kind, payload = worker.get()
            assert kind == protocol.DRAIN and payload is None
            worker.close()
            _wait_until(lambda: broker.drains_completed == 1,
                        message="graceful drain settled")
            assert broker.drains_requested == 1
            assert broker.drain_requeued_tasks == 0
            assert broker.requeued_tasks == 0
            assert len(broker.drain_durations) == 1
            # The drained worker's delivered result is never re-leased.
            survivor = _ScriptedWorker(broker, "w1")
            kind, [(index, _task)] = survivor.get()
            assert kind == protocol.TASKS and index == 1
            survivor.close()

    def test_self_drain_announce_is_unsolicited(self):
        """(DRAIN, None) from a worker (SIGTERM landed) marks it without a
        reply; the clean disconnect right after counts as graceful."""
        with SweepBroker(_tiny_tasks(1)) as broker:
            worker = _ScriptedWorker(broker, "sig")
            protocol.send_message(worker.sock, protocol.DRAIN, None)
            _wait_until(lambda: broker.draining_workers() == ["sig"],
                        message="self-drain mark")
            worker.close()
            _wait_until(lambda: broker.drains_completed == 1,
                        message="self drain settled")
            assert broker.drains_requested == 1
            assert broker.drain_requeued_tasks == 0

    def test_draining_worker_dying_with_lease_counts_lost_work(self):
        """Dying mid-drain is NOT graceful: the abandoned lease requeues and
        is pinned on drain_requeued_tasks (the counter CI asserts is 0)."""
        with SweepBroker(_tiny_tasks(2)) as broker:
            doomed = _ScriptedWorker(broker, "doomed")
            kind, [(index, _task)] = doomed.get()
            assert kind == protocol.TASKS and index == 0
            broker.mark_draining(["doomed"])
            doomed.close()                       # dies holding the lease
            _wait_until(lambda: broker.drain_requeued_tasks == 1,
                        message="drain death accounted")
            assert broker.drains_completed == 0
            assert broker.drain_durations == []
            survivor = _ScriptedWorker(broker, "survivor")
            served = set()
            for _ in range(2):                   # task 1 + the requeued task 0
                kind, [(index, _task)] = survivor.get()
                assert kind == protocol.TASKS
                served.add(index)
            assert served == {0, 1}              # the lost lease came back
            survivor.close()

    def test_drain_control_dispositions(self):
        from repro.fleet import request_drain

        with SweepBroker(_tiny_tasks(1)) as broker:
            host, port = broker.address
            worker = _ScriptedWorker(broker, "w0")
            gone = _ScriptedWorker(broker, "w-gone")
            gone.close()
            _wait_until(lambda: broker.stats_snapshot()["counters"]
                        ["active_connections"] == 1,
                        message="gone worker disconnect")
            first = request_drain(host, port, ["w0", "w-gone", "ghost"])
            assert first["marked"] == ["w0"]
            assert first["gone"] == ["w-gone"]
            assert first["unknown"] == ["ghost"]
            second = request_drain(host, port, ["w0"])
            assert second["already_draining"] == ["w0"]
            assert broker.drains_requested == 1   # marked once, not twice
            worker.close()

    def test_stats_snapshot_reports_drain_state(self):
        with SweepBroker(_tiny_tasks(1)) as broker:
            worker = _ScriptedWorker(broker, "w0")
            worker.get()
            broker.mark_draining(["w0"])
            snap = broker.stats_snapshot()
            assert snap["workers"]["w0"]["draining"] is True
            assert snap["counters"]["drains_requested"] == 1
            assert snap["counters"]["drains_completed"] == 0
            assert snap["counters"]["drain_requeued_tasks"] == 0
            assert snap["drain_seconds"] == []
            text = format_fleet_status(snap)
            assert "draining" in text
            assert "drains: requested=1 completed=0 lost_leases=0" in text
            worker.close()

    def test_reconciliation_invariant_under_worker_churn(self):
        """queued + leased + done == total through joins, drains and deaths
        mid-sweep — and a drained worker's last result is never recounted."""
        def check(broker):
            tasks = broker.stats_snapshot()["tasks"]
            assert (tasks["queued"] + tasks["leased"] + tasks["done"]
                    == tasks["total"]), tasks
            return tasks

        from repro.fleet import request_drain

        with SweepBroker(_tiny_tasks(6)) as broker:
            host, port = broker.address
            check(broker)
            # join: two workers lease one task each
            a = _ScriptedWorker(broker, "a")
            b = _ScriptedWorker(broker, "b")
            _, [(ia, _t)] = a.get()
            _, [(ib, _t)] = b.get()
            assert check(broker)["leased"] == 2
            # drain: a delivers its last result, is marked, disconnects
            assert a.send_result(ia) is True
            request_drain(host, port, ["a"])
            kind, _ = a.get()
            assert kind == protocol.DRAIN
            a.close()
            _wait_until(lambda: broker.drains_completed == 1,
                        message="drain settled")
            done_after_drain = check(broker)["done"]
            assert done_after_drain == 1
            # death: b dies holding its lease; the task requeues
            b.close()
            _wait_until(lambda: broker.requeued_tasks == 1,
                        message="death requeue")
            assert check(broker)["done"] == done_after_drain
            # a late duplicate of the drained worker's result is dropped,
            # not double counted
            c = _ScriptedWorker(broker, "c")
            assert c.send_result(ia) is False
            assert broker.duplicate_results == 1
            assert check(broker)["done"] == done_after_drain
            # c finishes the rest of the grid; totals reconcile to the end
            while True:
                kind, payload = c.get()
                if kind == protocol.SHUTDOWN:
                    break
                assert kind == protocol.TASKS
                [(index, _task)] = payload
                c.send_result(index)
                check(broker)
            assert broker.join(timeout=2.0)
            final = check(broker)
            assert final["done"] == final["total"] == 6
            assert broker.drain_requeued_tasks == 0
            c.close()


class TestDrainEndToEnd:
    """Real worker loops retired through both drain paths."""

    def test_request_drain_retires_live_worker(self):
        """A drain requested while the worker holds a lease retires it at
        its next GET: the in-flight result lands, nothing is requeued."""
        from repro.distributed.worker import WorkerOptions, run_worker
        from repro.fleet import request_drain

        with SweepBroker(_tiny_tasks(2)) as broker:
            host, port = broker.address
            reports = []
            # The broker runs the callback before it ACKs the first result,
            # so the mark lands before the worker can ask for the second task.
            broker.callback = lambda task, result: reports.append(
                request_drain(host, port, ["w0"]))
            completed = run_worker(host, port,
                                   WorkerOptions(worker_id="w0",
                                                 handle_signals=False))
            assert completed == 1
            assert reports == [{"marked": ["w0"], "already_draining": [],
                                "unknown": [], "gone": []}]
            _wait_until(lambda: broker.drains_completed == 1,
                        message="drain settled")
            assert broker.drain_requeued_tasks == 0
            assert broker.requeued_tasks == 0

    def test_worker_drain_event_announces_self_drain(self):
        """The drain_event / signal path: the worker stops at the next batch
        boundary, tells the broker, and the disconnect settles gracefully."""
        from repro.distributed.worker import WorkerOptions, run_worker

        with SweepBroker(_tiny_tasks(4)) as broker:
            host, port = broker.address
            drain = threading.Event()
            completions = []
            original_callback = broker.callback

            def stop_after_first(task, result):
                completions.append(task)
                drain.set()                      # "SIGTERM" mid-sweep

            broker.callback = stop_after_first
            completed = run_worker(host, port,
                                   WorkerOptions(worker_id="sig",
                                                 handle_signals=False,
                                                 drain_event=drain))
            broker.callback = original_callback
            assert 1 <= completed < 4            # stopped early, cleanly
            _wait_until(lambda: broker.drains_completed == 1,
                        message="self drain settled")
            assert broker.drains_requested == 1
            assert broker.drain_requeued_tasks == 0
            assert broker.requeued_tasks == 0
