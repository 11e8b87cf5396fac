"""End-to-end integration tests crossing module boundaries.

These exercise the complete stack — environment, agent, runner, platform
models — on small budgets so they stay fast while still covering the paths
the benchmark harnesses use.
"""

import numpy as np
import pytest

import repro
from repro import Trainer, TrainingConfig, evaluate_agent, make_design
from repro.core.agents import AgentConfig, OSELMQAgent
from repro.core.regularization import RegularizationConfig
from repro.envs import make as make_env
from repro.experiments.execution_time import ExecutionTimeExperiment
from repro.fpga.platform import PynqZ1Platform


class TestPublicAPI:
    def test_version_and_exports(self):
        assert repro.__version__
        for name in ("make_design", "Trainer", "OSELM", "ELM", "DESIGN_NAMES",
                     "FPGAAcceleratedOSELM", "PynqZ1Platform", "Q20"):
            assert hasattr(repro, name), name

    def test_quickstart_flow(self):
        """The README quickstart must work as written (tiny budget here)."""
        agent = repro.make_design("OS-ELM-L2-Lipschitz", n_hidden=16, seed=0)
        result = repro.Trainer().fit(agent, config=repro.TrainingConfig(max_episodes=5, seed=0))
        assert result.episodes == 5


class TestAllDesignsSmoke:
    @pytest.mark.parametrize("design", ["ELM", "OS-ELM", "OS-ELM-L2", "OS-ELM-Lipschitz",
                                        "OS-ELM-L2-Lipschitz", "DQN", "FPGA"])
    def test_each_design_trains_without_error(self, design):
        agent = make_design(design, n_hidden=16, seed=3)
        config = TrainingConfig(max_episodes=4, seed=3)
        result = Trainer().fit(agent, config=config)
        assert result.design == agent.name
        assert result.episodes == 4
        assert result.breakdown.total() >= 0
        lengths = evaluate_agent(agent, n_episodes=2, config=TrainingConfig(seed=5))
        assert np.all(lengths >= 1)

    def test_plain_oselm_survives_ill_conditioning(self):
        """Without the L2 term the P update can lose positive definiteness; the agent
        must keep running (the paper's 'unstable' behaviour) rather than crash."""
        agent = make_design("OS-ELM", n_hidden=32, seed=2)
        config = TrainingConfig(max_episodes=60, seed=2)
        result = Trainer().fit(agent, config=config)
        assert result.episodes == 60   # completed the run without raising


class TestLearningBehaviour:
    def test_oselm_l2_improves_over_random_policy(self):
        """The OS-ELM-L2 design must climb meaningfully above the random-policy baseline
        on CartPole within a few hundred episodes (Figure 4's qualitative behaviour)."""
        agent = make_design("OS-ELM-L2", n_hidden=64, seed=6, reset_after_episodes=None)
        config = TrainingConfig(max_episodes=600, seed=6, stop_when_solved=True,
                                solved_threshold=80.0, solved_window=30)
        result = Trainer().fit(agent, config=config)
        peak = float(result.curve.moving_average.max())
        assert result.solved or peak > 40.0

    def test_dqn_learns_quickly(self):
        """The DQN baseline should lift its greedy policy well above random within
        ~150 episodes (its sample efficiency is not the paper's concern — time is)."""
        agent = make_design("DQN", n_hidden=32, seed=0)
        config = TrainingConfig(max_episodes=150, seed=0, solved_threshold=120.0,
                                solved_window=20)
        result = Trainer().fit(agent, config=config)
        greedy_lengths = evaluate_agent(agent, n_episodes=5, config=TrainingConfig(seed=9))
        assert result.solved or float(np.mean(greedy_lengths)) > 60.0


class TestFPGAPathIntegration:
    def test_fpga_agent_accumulates_modelled_time(self):
        agent = make_design("FPGA", n_hidden=16, seed=0)
        config = TrainingConfig(max_episodes=10, seed=0)
        Trainer().fit(agent, config=config)
        modelled = agent.model.modelled_time
        assert modelled.counts.get("seq_train", 0) > 0
        assert modelled.counts.get("predict_seq", 0) > 0
        assert modelled.seconds.get("init_train", 0.0) > 0.0

    def test_fpga_and_software_agree_functionally(self):
        """With identical seeds the FPGA (fixed-point) agent's Q-values stay close to
        the float OS-ELM-L2-Lipschitz agent's during early training."""
        seed = 4
        sw = make_design("OS-ELM-L2-Lipschitz", n_hidden=16, seed=seed)
        hw = make_design("FPGA", n_hidden=16, seed=seed)
        env_sw = make_env("CartPole-v0", seed=seed)
        env_hw = make_env("CartPole-v0", seed=seed)
        for agent, env in ((sw, env_sw), (hw, env_hw)):
            state, _ = env.reset(seed=seed)
            for _ in range(80):
                action = agent.act(state)
                result = env.step(action)
                agent.observe(state, action, 0.0, result.observation, result.done)
                state = result.observation
                if result.done:
                    state, _ = env.reset()
        probe = np.array([0.01, 0.1, -0.02, -0.1])
        q_sw = sw.q_online.q_values(probe)
        q_hw = hw.q_online.q_values(probe)
        np.testing.assert_allclose(q_hw, q_sw, atol=5e-3)

    def test_execution_time_projection_ordering(self):
        """Modelled per-operation latencies preserve the paper's ordering:
        FPGA seq_train << CPU seq_train << DQN train step (same width)."""
        platform = PynqZ1Platform()
        n_hidden = 64
        counts = {"seq_train": 10_000}
        fpga = platform.project_breakdown("FPGA", counts, n_hidden=n_hidden).total()
        software = platform.project_breakdown("OS-ELM-L2-Lipschitz", counts,
                                              n_hidden=n_hidden).total()
        dqn = platform.project_breakdown("DQN", {"train_DQN": 10_000},
                                         n_hidden=n_hidden).total()
        assert fpga < software < dqn

    def test_execution_time_experiment_single_projection(self):
        experiment = ExecutionTimeExperiment.ci_scale(designs=("FPGA",), hidden_sizes=(16,),
                                                      max_episodes=4)
        timing = experiment.run_single("FPGA", 16)
        assert timing.design == "FPGA"
        assert timing.modelled_total > 0
        assert timing.counts.get("seq_train", 0) >= 0


class TestCustomConfigurations:
    def test_one_hot_action_agent(self):
        config = AgentConfig(n_states=4, n_actions=2, n_hidden=16, seed=0,
                             one_hot_actions=True,
                             regularization=RegularizationConfig.l2(1.0))
        agent = OSELMQAgent(config)
        assert agent.config.input_size == 6
        result = Trainer().fit(agent, config=TrainingConfig(max_episodes=3, seed=0))
        assert result.episodes == 3

    def test_mountain_car_environment_with_oselm(self):
        """The future-work scenario: the same agent API drives MountainCar."""
        config = AgentConfig(n_states=2, n_actions=3, n_hidden=16, seed=0,
                             regularization=RegularizationConfig.l2(1.0))
        agent = OSELMQAgent(config)
        env = make_env("MountainCar-v0", seed=0)
        training = TrainingConfig(env_id="MountainCar-v0", max_episodes=3,
                                  reward_shaping=False, seed=0)
        result = Trainer().fit(agent, env, config=training)
        assert result.episodes == 3

    def test_acrobot_environment_with_dqn(self):
        agent = make_design("DQN", n_states=6, n_actions=3, n_hidden=16, seed=0,
                            min_replay_size=32)
        env = make_env("Acrobot-v1", seed=0, max_episode_steps=60)
        training = TrainingConfig(env_id="Acrobot-v1", max_episodes=2,
                                  reward_shaping=False, seed=0)
        result = Trainer().fit(agent, env, config=training)
        assert result.episodes == 2
