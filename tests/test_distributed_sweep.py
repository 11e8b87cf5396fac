"""End-to-end tests of the distributed backend: equivalence, faults, resume.

The broker-protocol edge cases live in ``test_distributed_broker.py``;
here real worker processes train real trials, pinning the contract the CI
backend-equivalence job enforces at larger scale: ``backend="distributed"``
replays ``backend="serial"`` bit-for-bit on fixed seeds, survives a worker
being killed mid-sweep, and checkpoints every trial into the artifact
store as it lands.
"""

import time

import numpy as np
import pytest

from repro.api import ArtifactStore, Budget, ExperimentSpec
from repro.api import run as run_experiment
from repro.api.cli import main as cli_main
from repro.distributed import (
    SweepBroker,
    WorkerOptions,
    execute_task,
    run_distributed_sweep,
    spawn_local_workers,
)
from repro.parallel.sweep import SweepRunner, SweepSpec, _run_sweep_task
from repro.training import TrainingConfig


def _tiny_sweep(n_seeds=3, max_episodes=20):
    return SweepSpec(designs=("OS-ELM-L2-Lipschitz",), n_seeds=n_seeds,
                     n_hidden=16, training=TrainingConfig(max_episodes=max_episodes),
                     root_seed=321)


def _assert_same_trials(reference, sweep):
    assert len(reference) == len(sweep)
    for (task_a, result_a), (task_b, result_b) in zip(reference.entries,
                                                      sweep.entries):
        assert task_a.key() == task_b.key()
        np.testing.assert_array_equal(result_a.curve.steps, result_b.curve.steps)
        assert result_a.solved == result_b.solved
        assert result_a.breakdown.counts == result_b.breakdown.counts


class TestDistributedBackend:
    def test_replays_serial_bit_for_bit(self):
        spec = _tiny_sweep()
        serial = SweepRunner(spec, backend="serial").run()
        distributed = SweepRunner(spec, backend="distributed", max_workers=2).run()
        _assert_same_trials(serial, distributed)
        assert distributed.backend_counts() == {"distributed": 3}

    def test_unknown_backend_still_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SweepRunner(_tiny_sweep(), backend="cluster")

    def test_single_worker_fleet(self):
        spec = _tiny_sweep(n_seeds=2, max_episodes=5)
        serial = SweepRunner(spec, backend="serial").run()
        distributed = SweepRunner(spec, backend="distributed", max_workers=1).run()
        _assert_same_trials(serial, distributed)

    def test_worker_killed_mid_sweep_still_converges(self):
        """Terminating a worker mid-run must cost wall time, not results."""
        spec = _tiny_sweep(n_seeds=4, max_episodes=40)
        tasks = spec.tasks()
        serial = [_run_sweep_task(task) for task in tasks]

        broker = SweepBroker(tasks, heartbeat_timeout=5.0)
        broker.start()
        host, port = broker.address
        workers = spawn_local_workers(host, port, 2)
        try:
            deadline = time.monotonic() + 30.0
            while (broker.active_connections < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)          # let the fleet connect + lease tasks
            time.sleep(0.05)
            workers[0].terminate()        # SIGTERM: connection drops mid-trial
            assert broker.join(timeout=60.0), "sweep did not converge"
            results = broker.results()
        finally:
            broker.close()
            for worker in workers:
                worker.join(timeout=5.0)
                if worker.is_alive():
                    worker.kill()
        for serial_result, (dist_result, backend_used) in zip(serial, results):
            assert backend_used == "distributed"
            np.testing.assert_array_equal(serial_result.curve.steps,
                                          dist_result.curve.steps)

    def test_all_workers_dead_raises_instead_of_hanging(self, monkeypatch):
        """A fleet that crashes on arrival is an error, not an infinite wait."""
        import multiprocessing as mp

        from repro.distributed import coordinator

        def spawn_dead_fleet(host, port, n_workers, **kwargs):
            process = mp.get_context().Process(target=time.sleep, args=(0,))
            process.start()
            process.join()                 # exited before serving anything
            return [process]

        monkeypatch.setattr(coordinator, "spawn_local_workers", spawn_dead_fleet)
        tasks = _tiny_sweep(n_seeds=1).tasks()
        with pytest.raises(RuntimeError, match="every local worker exited"):
            coordinator.run_distributed_sweep(tasks, n_workers=1)

    def test_requires_workers_without_bind(self):
        with pytest.raises(ValueError, match="n_workers"):
            run_distributed_sweep(_tiny_sweep(n_seeds=1).tasks(), n_workers=0)


class TestEngineAndStore:
    def _spec(self, **overrides):
        defaults = dict(name="dist-tiny", designs=("OS-ELM-L2",),
                        hidden_sizes=(16,), n_seeds=2,
                        budget=Budget(max_episodes=6))
        defaults.update(overrides)
        return ExperimentSpec(**defaults)

    def test_engine_distributed_matches_serial_csv(self, tmp_path):
        spec = self._spec()
        serial = run_experiment(spec, backend="serial",
                                out=str(tmp_path / "serial"))
        distributed = run_experiment(spec, backend="distributed",
                                     max_workers=2,
                                     out=str(tmp_path / "distributed"))
        assert serial.summary_csv() == distributed.summary_csv()
        assert distributed.backend_counts() == {"distributed": 2}

    def test_broker_checkpoints_every_trial_into_store(self, tmp_path):
        spec = self._spec()
        store = ArtifactStore(tmp_path / "store")
        report = run_experiment(spec, backend="distributed", max_workers=2,
                                store=store)
        assert report.executed_count == 2
        for record in report.trials:
            cached = store.load_trial(record.task)
            assert cached is not None
            _, backend_used = cached
            assert backend_used == "distributed"
        # Resume: the second run must come entirely from the cache pass.
        resumed = run_experiment(spec, backend="distributed", max_workers=2,
                                 store=store)
        assert resumed.executed_count == 0
        assert resumed.cached_count == 2
        assert resumed.summary_csv() == report.summary_csv()

    def test_non_distributed_backends_checkpoint_per_trial_too(self, tmp_path):
        """Every backend streams trials into the store as they finish, with
        the execution path each trial actually took."""
        spec = self._spec(designs=("OS-ELM-L2", "OS-ELM"))  # batched + generic
        store = ArtifactStore(tmp_path / "store")
        report = run_experiment(spec, backend="vectorized", store=store)
        for record in report.trials:
            cached = store.load_trial(record.task)
            assert cached is not None
            _, backend_used = cached
            assert backend_used == record.backend_used
        # Both strategies report "lockstep": the batched fast path for
        # OS-ELM-L2, the generic per-agent strategy for unregularized OS-ELM.
        assert {r.backend_used for r in report.trials} == {"lockstep"}

    def test_store_equipped_worker_answers_from_cache(self, tmp_path):
        store = ArtifactStore(tmp_path / "worker-store")
        task = _tiny_sweep(n_seeds=1, max_episodes=4).tasks()[0]
        fresh, was_cached = execute_task(task, store)
        assert was_cached is False
        again, was_cached = execute_task(task, store)
        assert was_cached is True
        np.testing.assert_array_equal(fresh.curve.steps, again.curve.steps)


class TestCLI:
    def test_run_distributed_workers_flag(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        from repro.utils.serialization import save_json

        save_json(spec_path, self._spec().to_json())
        serial_csv = tmp_path / "serial.csv"
        dist_csv = tmp_path / "dist.csv"
        assert cli_main(["run", str(spec_path), "--backend", "serial",
                         "--out", str(tmp_path / "a"), "--csv",
                         str(serial_csv), "--quiet"]) == 0
        assert cli_main(["run", str(spec_path), "--backend", "distributed",
                         "--workers", "2", "--out", str(tmp_path / "b"),
                         "--csv", str(dist_csv), "--quiet"]) == 0
        assert serial_csv.read_text() == dist_csv.read_text()

    def test_worker_subcommand_serves_a_broker(self, capsys):
        tasks = _tiny_sweep(n_seeds=1, max_episodes=3).tasks()
        with SweepBroker(tasks) as broker:
            host, port = broker.address
            code = cli_main(["worker", "--connect", f"{host}:{port}",
                             "--id", "cli-test"])
            assert code == 0
            assert broker.join(timeout=1.0)
        assert "1 trials completed" in capsys.readouterr().out
        assert "cli-test" in broker.workers_seen

    def test_worker_subcommand_refuses_dead_address(self, capsys):
        code = cli_main(["worker", "--connect", "127.0.0.1:1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @staticmethod
    def _spec():
        return ExperimentSpec(name="cli-dist", designs=("OS-ELM-L2",),
                              hidden_sizes=(16,), n_seeds=2,
                              budget=Budget(max_episodes=5))


class TestWorkerOptions:
    def test_max_tasks_limits_the_loop(self):
        tasks = _tiny_sweep(n_seeds=2, max_episodes=3).tasks()
        from repro.distributed import run_worker

        with SweepBroker(tasks) as broker:
            host, port = broker.address
            completed = run_worker(host, port, WorkerOptions(max_tasks=1))
            assert completed == 1
            assert broker.completed_count == 1
            # A second worker finishes the grid.
            completed = run_worker(host, port, WorkerOptions())
            assert completed == 1
            assert broker.join(timeout=1.0)
