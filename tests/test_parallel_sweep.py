"""Tests for lock-step training, sweep orchestration and experiment wiring."""

import numpy as np
import pytest

from repro.core.designs import make_design
from repro.parallel import (
    SweepRunner,
    SweepSpec,
    evaluate_agent_vectorized,
    parallel_map,
    supports_lockstep,
)
from repro.training import Trainer, TrainingConfig


def _lockstep(agents, configs):
    return Trainer().fit_lockstep(agents, configs, strategy="batched")


def _train_serial(design, n_hidden, seeds, configs):
    return [Trainer().fit(make_design(design, n_hidden=n_hidden, seed=seed),
                          config=config, n_hidden=n_hidden)
            for seed, config in zip(seeds, configs)]


class TestLockstepTrainer:
    def test_oselm_matches_serial_bit_for_bit(self):
        """The lock-step batch must replay the serial trials exactly: same
        episode lengths, same solve outcome, same operation counts."""
        seeds = [11, 22, 33]
        configs = [TrainingConfig(max_episodes=50, seed=seed) for seed in seeds]
        serial = _train_serial("OS-ELM-L2-Lipschitz", 16, seeds, configs)
        agents = [make_design("OS-ELM-L2-Lipschitz", n_hidden=16, seed=seed)
                  for seed in seeds]
        batched = _lockstep(agents, configs)
        for serial_result, batch_result in zip(serial, batched):
            np.testing.assert_array_equal(serial_result.curve.steps,
                                          batch_result.curve.steps)
            assert serial_result.solved == batch_result.solved
            assert serial_result.breakdown.counts == batch_result.breakdown.counts

    def test_elm_design_matches_serial(self):
        seeds = [5, 6]
        configs = [TrainingConfig(max_episodes=30, seed=seed) for seed in seeds]
        serial = _train_serial("ELM", 16, seeds, configs)
        batched = _lockstep(
            [make_design("ELM", n_hidden=16, seed=seed) for seed in seeds], configs)
        for serial_result, batch_result in zip(serial, batched):
            np.testing.assert_array_equal(serial_result.curve.steps,
                                          batch_result.curve.steps)

    def test_stall_reset_rule_matches_serial(self):
        """A tiny reset_after_episodes forces weight resets mid-batch; the
        lock-step path must re-randomise identically to the serial loop."""
        seeds = [3, 4]
        configs = [TrainingConfig(max_episodes=40, seed=seed) for seed in seeds]
        serial = [Trainer().fit(
            make_design("OS-ELM-L2", n_hidden=16, seed=seed, reset_after_episodes=10),
            config=config) for seed, config in zip(seeds, configs)]
        agents = [make_design("OS-ELM-L2", n_hidden=16, seed=seed,
                              reset_after_episodes=10) for seed in seeds]
        batched = _lockstep(agents, configs)
        for serial_result, batch_result in zip(serial, batched):
            assert serial_result.weight_resets > 0
            assert serial_result.weight_resets == batch_result.weight_resets
            np.testing.assert_array_equal(serial_result.curve.steps,
                                          batch_result.curve.steps)

    def test_stop_when_solved_deactivates_trial(self):
        configs = [TrainingConfig(max_episodes=100, solved_threshold=2.0,
                                  solved_window=5, seed=seed) for seed in (0, 1)]
        agents = [make_design("OS-ELM-L2", n_hidden=8, seed=seed) for seed in (0, 1)]
        results = _lockstep(agents, configs)
        for result in results:
            assert result.solved
            assert result.episodes == result.episodes_to_solve < 100

    def test_rejects_unsupported_agents(self):
        dqn = make_design("DQN", n_hidden=8, seed=0)
        assert not supports_lockstep(dqn)
        assert not supports_lockstep(make_design("FPGA", n_hidden=8, seed=0))
        # The un-ridged recursive P update amplifies batched-vs-serial BLAS
        # rounding chaotically, so the unregularized OS-ELM variants are out.
        assert not supports_lockstep(make_design("OS-ELM", n_hidden=8, seed=0))
        assert not supports_lockstep(make_design("OS-ELM-Lipschitz", n_hidden=8, seed=0))
        assert supports_lockstep(make_design("OS-ELM-L2", n_hidden=8, seed=0))
        assert supports_lockstep(make_design("ELM", n_hidden=8, seed=0))
        with pytest.raises(TypeError):
            _lockstep([dqn], [TrainingConfig(max_episodes=2, seed=0)])

    def test_unregularized_oselm_falls_back_and_matches_serial(self):
        """'OS-ELM' routed through the vectorized backend must take the serial
        fallback and therefore reproduce backend='serial' exactly."""
        spec = SweepSpec(designs=("OS-ELM",), n_seeds=2, n_hidden=8,
                         training=TrainingConfig(max_episodes=15), root_seed=44)
        vec = SweepRunner(spec, backend="vectorized").run()
        ser = SweepRunner(spec, backend="serial").run()
        for vec_result, ser_result in zip(vec.results_for(), ser.results_for()):
            np.testing.assert_array_equal(vec_result.curve.steps,
                                          ser_result.curve.steps)

    def test_rejects_mismatched_batches(self):
        agents = [make_design("OS-ELM-L2", n_hidden=8, seed=0),
                  make_design("OS-ELM-L2", n_hidden=16, seed=1)]
        configs = [TrainingConfig(max_episodes=2, seed=s) for s in (0, 1)]
        with pytest.raises(ValueError):
            _lockstep(agents, configs)
        mixed_activation = [make_design("OS-ELM-L2", n_hidden=8, seed=0),
                            make_design("OS-ELM-L2", n_hidden=8, seed=1,
                                        activation="sigmoid")]
        with pytest.raises(ValueError, match="activation"):
            _lockstep(mixed_activation, configs)
        with pytest.raises(ValueError):
            _lockstep(agents[:1], configs)
        mixed_envs = [TrainingConfig(max_episodes=2, env_id="CartPole-v0", seed=0),
                      TrainingConfig(max_episodes=2, env_id="CartPole-v1", seed=1)]
        with pytest.raises(ValueError):
            _lockstep([make_design("OS-ELM-L2", n_hidden=8, seed=s)
                       for s in (0, 1)], mixed_envs)


class TestSweepSpec:
    def test_grid_expansion_and_seed_derivation(self):
        spec = SweepSpec(designs=("ELM", "OS-ELM-L2"), n_seeds=3,
                         training=TrainingConfig(max_episodes=5), root_seed=9)
        tasks = spec.tasks()
        assert len(tasks) == 6
        seeds = [task.seed for task in tasks]
        assert len(set(seeds)) == 6                       # pairwise distinct
        assert [t.seed for t in SweepSpec(designs=("ELM", "OS-ELM-L2"), n_seeds=3,
                                          training=TrainingConfig(max_episodes=5),
                                          root_seed=9).tasks()] == seeds
        for task in tasks:
            assert task.training.seed == task.seed        # embedded per-trial seed

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(designs=())
        with pytest.raises(ValueError):
            SweepSpec(n_seeds=0)
        with pytest.raises(ValueError):
            SweepSpec(designs=("NoSuchDesign",))


class TestSweepRunner:
    def test_vectorized_and_serial_backends_agree(self):
        spec = SweepSpec(designs=("OS-ELM-L2",), n_seeds=3, n_hidden=16,
                         training=TrainingConfig(max_episodes=20), root_seed=77)
        vec = SweepRunner(spec, backend="vectorized").run()
        ser = SweepRunner(spec, backend="serial").run()
        assert len(vec) == len(ser) == 3
        for vec_result, ser_result in zip(vec.results_for(), ser.results_for()):
            np.testing.assert_array_equal(vec_result.curve.steps,
                                          ser_result.curve.steps)

    def test_process_backend_matches_serial(self):
        spec = SweepSpec(designs=("OS-ELM-L2",), n_seeds=2, n_hidden=8,
                         training=TrainingConfig(max_episodes=5), root_seed=3)
        proc = SweepRunner(spec, backend="process", max_workers=2).run()
        ser = SweepRunner(spec, backend="serial").run()
        for proc_result, ser_result in zip(proc.results_for(), ser.results_for()):
            np.testing.assert_array_equal(proc_result.curve.steps,
                                          ser_result.curve.steps)

    def test_streaming_callback_sees_every_task(self):
        spec = SweepSpec(designs=("ELM", "DQN"), n_seeds=2, n_hidden=8,
                         training=TrainingConfig(max_episodes=3), root_seed=5)
        seen = []
        result = SweepRunner(spec, backend="vectorized").run(
            callback=lambda task, res: seen.append((task.design, task.trial)))
        assert len(result) == 4
        assert sorted(seen) == [("DQN", 0), ("DQN", 1), ("ELM", 0), ("ELM", 1)]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(SweepSpec(training=TrainingConfig(max_episodes=2)),
                        backend="gpu")

    def test_explicit_task_list(self):
        """SweepRunner accepts a pre-built task list (the repro.api path) and
        reproduces the spec-driven run exactly."""
        spec = SweepSpec(designs=("OS-ELM-L2",), n_seeds=2, n_hidden=8,
                         training=TrainingConfig(max_episodes=6), root_seed=13)
        from_spec = SweepRunner(spec, backend="serial").run()
        from_tasks = SweepRunner(spec.tasks(), backend="serial").run()
        assert len(from_tasks) == len(from_spec) == 2
        for a, b in zip(from_spec.results_for(), from_tasks.results_for()):
            np.testing.assert_array_equal(a.curve.steps, b.curve.steps)
        with pytest.raises(ValueError):
            SweepRunner([], backend="serial")
        with pytest.raises(TypeError):
            SweepRunner([object()], backend="serial")
        # Generators must be materialized, not silently exhausted by validation.
        from_generator = SweepRunner(iter(spec.tasks()), backend="serial").run()
        assert len(from_generator) == 2

    def test_sweep_spec_resolves_env_dimensions(self):
        """A SweepSpec naming a non-CartPole env must size agents for it."""
        spec = SweepSpec(designs=("OS-ELM-L2",), env_ids=("MountainCar-v0",),
                         n_seeds=1, n_hidden=8,
                         training=TrainingConfig(max_episodes=2,
                                                 reward_shaping=False),
                         root_seed=2)
        task = spec.tasks()[0]
        assert (task.n_states, task.n_actions) == (2, 3)
        sweep = SweepRunner(spec, backend="serial").run()
        assert sweep.results_for()[0].episodes == 2

    def test_backend_used_recorded_per_trial(self):
        """The vectorized backend must audit which path each trial took:
        since 1.4 every design lock-steps — OS-ELM-L2 through the batched
        strategy and unregularized OS-ELM through the generic per-agent
        strategy, both recorded as "lockstep"."""
        spec = SweepSpec(designs=("OS-ELM-L2", "OS-ELM"), n_seeds=2, n_hidden=8,
                         training=TrainingConfig(max_episodes=4), root_seed=8)
        sweep = SweepRunner(spec, backend="vectorized").run()
        assert len(sweep.backends_used) == len(sweep.entries) == 4
        for (task, _), backend_used in zip(sweep.entries, sweep.backends_used):
            assert backend_used == "lockstep"
            assert sweep.backend_for(task) == "lockstep"
        assert sweep.backend_counts() == {"lockstep": 4}
        rows = {row["design"]: row for row in sweep.summary_rows()}
        assert rows["OS-ELM-L2"]["backend_used"] == "lockstep"
        assert rows["OS-ELM"]["backend_used"] == "lockstep"
        serial = SweepRunner(spec, backend="serial").run()
        assert set(serial.backends_used) == {"serial"}

    def test_aggregation_helpers(self):
        spec = SweepSpec(designs=("OS-ELM-L2",), n_seeds=3, n_hidden=8,
                         training=TrainingConfig(max_episodes=8), root_seed=21)
        sweep = SweepRunner(spec, backend="vectorized").run()
        assert 0.0 <= sweep.solved_fraction("OS-ELM-L2", "CartPole-v0") <= 1.0
        curve = sweep.aggregate_curve("OS-ELM-L2", "CartPole-v0")
        assert curve["mean_steps"].shape == curve["episodes"].shape
        assert curve["mean_steps"].shape == curve["std_steps"].shape
        assert sweep.total_env_steps > 0
        assert "OS-ELM-L2" in sweep.render()
        with pytest.raises(KeyError):
            sweep.aggregate_curve("DQN", "CartPole-v0")


class TestParallelMap:
    def test_serial_backend_orders_results(self):
        assert parallel_map(abs, [-3, -1, -2], backend="serial") == [3, 1, 2]

    def test_empty_items(self):
        assert parallel_map(abs, [], backend="process") == []

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            parallel_map(abs, [1], backend="thread")

    def test_callback_streams_completions(self):
        seen = []
        parallel_map(abs, [-1, -2], backend="serial",
                     callback=lambda index, value: seen.append((index, value)))
        assert seen == [(0, 1), (1, 2)]


class TestVectorizedEvaluation:
    def test_returns_requested_episode_lengths(self):
        agent = make_design("OS-ELM-L2", n_hidden=8, seed=0)
        Trainer().fit(agent, config=TrainingConfig(max_episodes=10, seed=0))
        lengths = evaluate_agent_vectorized(agent, n_episodes=5, num_envs=3, seed=2)
        assert lengths.shape == (5,)
        assert np.all(lengths >= 1)

    def test_reproducible_for_fixed_seed(self):
        agent = make_design("OS-ELM-L2", n_hidden=8, seed=0)
        Trainer().fit(agent, config=TrainingConfig(max_episodes=10, seed=0))
        first = evaluate_agent_vectorized(agent, n_episodes=4, num_envs=2, seed=8)
        second = evaluate_agent_vectorized(agent, n_episodes=4, num_envs=2, seed=8)
        np.testing.assert_array_equal(first, second)

    def test_invalid_episode_count(self):
        agent = make_design("OS-ELM-L2", n_hidden=8, seed=0)
        with pytest.raises(ValueError):
            evaluate_agent_vectorized(agent, n_episodes=0)
