"""Tests for the vector-env layer: semantics, auto-reset, Sync==Subproc."""

import numpy as np
import pytest

from repro.envs.cartpole import CartPoleEnv, CartPoleParams
from repro.envs.registry import make as make_env
from repro.parallel import (
    EnvFactory,
    SubprocVectorEnv,
    SyncVectorEnv,
    VectorStepResult,
    make_vector,
)


def _factories(n, *, base_seed=100, **kwargs):
    return [EnvFactory("CartPole-v0", seed=base_seed + i,
                       kwargs=tuple(sorted(kwargs.items()))) for i in range(n)]


class TestVectorStepResult:
    def test_dones_combines_flags(self):
        result = VectorStepResult(np.zeros((2, 4)), np.ones(2),
                                  np.array([True, False]), np.array([False, False]))
        np.testing.assert_array_equal(result.dones, [True, False])

    def test_iterates_as_tuple(self):
        result = VectorStepResult(np.zeros((2, 4)), np.ones(2),
                                  np.zeros(2, bool), np.zeros(2, bool), [{}, {}])
        obs, rewards, terminated, truncated, infos = result
        assert obs.shape == (2, 4) and len(infos) == 2


class TestSyncVectorEnv:
    def test_reset_and_step_shapes(self):
        venv = SyncVectorEnv(_factories(3))
        observations, infos = venv.reset()
        assert observations.shape == (3, 4) and len(infos) == 3
        result = venv.step(np.array([0, 1, 0]))
        assert result.observations.shape == (3, 4)
        assert result.rewards.shape == (3,)
        assert result.terminated.dtype == bool and result.truncated.dtype == bool

    def test_seeded_reset_reproducible(self):
        venv = SyncVectorEnv(_factories(3))
        first, _ = venv.reset(seed=42)
        second, _ = venv.reset(seed=42)
        np.testing.assert_array_equal(first, second)
        # spawn_seeds decorrelates the sub-envs from each other.
        assert not np.array_equal(first[0], first[1])

    def test_wrong_action_count_rejected(self):
        venv = SyncVectorEnv(_factories(2))
        venv.reset()
        with pytest.raises(ValueError):
            venv.step(np.array([0, 1, 0]))

    def test_invalid_action_rejected(self):
        venv = SyncVectorEnv(_factories(2))
        venv.reset()
        with pytest.raises(ValueError):
            venv.step(np.array([0, 7]))

    def test_non_integer_actions_rejected(self):
        venv = SyncVectorEnv(_factories(2))
        venv.reset()
        with pytest.raises(ValueError, match="integer"):
            venv.step(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            venv.step(np.array([True, False]))

    def test_step_before_reset_rejected(self):
        venv = SyncVectorEnv(_factories(2))
        with pytest.raises(RuntimeError):
            venv.step(np.array([0, 1]))

    def test_truncation_flag_per_env(self):
        venv = SyncVectorEnv(_factories(2, max_episode_steps=5))
        venv.reset(seed=0)
        for _ in range(4):
            result = venv.step(np.array([0, 1]))
        # By step 5 any env still alive must report truncated (not terminated).
        result = venv.step(np.array([0, 1]))
        for i in range(2):
            assert result.terminated[i] or result.truncated[i]

    def test_autoreset_returns_fresh_obs_and_final_observation(self):
        venv = SyncVectorEnv(_factories(2, max_episode_steps=3))
        venv.reset(seed=1)
        result = None
        for _ in range(3):
            result = venv.step(np.array([1, 1]))
        done_envs = np.flatnonzero(result.dones)
        assert done_envs.size > 0
        for i in done_envs:
            final = result.infos[i]["final_observation"]
            assert final.shape == (4,)
            # The returned row is the next episode's initial state, which is
            # drawn from U[-0.05, 0.05] and distinct from the terminal state.
            assert not np.array_equal(final, result.observations[i])
            assert np.all(np.abs(result.observations[i]) <= 0.05)

    def test_no_autoreset_raises_on_next_step(self):
        venv = SyncVectorEnv(_factories(1, max_episode_steps=2), autoreset=False)
        venv.reset(seed=0)
        venv.step(np.array([1]))
        venv.step(np.array([1]))
        with pytest.raises(RuntimeError):
            venv.step(np.array([1]))

    def test_batch_physics_enabled_for_uniform_cartpoles(self):
        assert SyncVectorEnv(_factories(2)).uses_batch_physics
        assert not SyncVectorEnv(_factories(2), batch_physics=False).uses_batch_physics

    def test_batch_physics_disabled_for_mixed_params(self):
        heavy = CartPoleParams(cart_mass=2.0)
        fns = [lambda: make_env("CartPole-v0", seed=0),
               lambda: CartPoleEnv(params=heavy, seed=1)]
        assert not SyncVectorEnv(fns).uses_batch_physics

    def test_batched_physics_matches_per_env_loop(self):
        fns = _factories(3)
        fast = SyncVectorEnv(fns)
        slow = SyncVectorEnv(fns, batch_physics=False)
        obs_fast, _ = fast.reset(seed=7)
        obs_slow, _ = slow.reset(seed=7)
        np.testing.assert_array_equal(obs_fast, obs_slow)
        rng = np.random.default_rng(0)
        for _ in range(250):
            actions = rng.integers(0, 2, size=3)
            result_fast = fast.step(actions)
            result_slow = slow.step(actions)
            np.testing.assert_array_equal(result_fast.observations,
                                          result_slow.observations)
            np.testing.assert_array_equal(result_fast.terminated,
                                          result_slow.terminated)
            np.testing.assert_array_equal(result_fast.truncated,
                                          result_slow.truncated)

    def test_large_batch_numpy_branch_matches_loop(self):
        # Above 16 sub-envs the fast path switches from the scalar-Python
        # integrator to CartPoleEnv.batch_dynamics; both must match the
        # per-env loop exactly.
        fns = _factories(20)
        fast = SyncVectorEnv(fns)
        slow = SyncVectorEnv(fns, batch_physics=False)
        obs_fast, _ = fast.reset(seed=3)
        obs_slow, _ = slow.reset(seed=3)
        np.testing.assert_array_equal(obs_fast, obs_slow)
        rng = np.random.default_rng(2)
        for _ in range(60):
            actions = rng.integers(0, 2, size=20)
            result_fast = fast.step(actions)
            result_slow = slow.step(actions)
            np.testing.assert_array_equal(result_fast.observations,
                                          result_slow.observations)
            np.testing.assert_array_equal(result_fast.terminated,
                                          result_slow.terminated)

    def test_fast_path_infos_match_loop_path(self):
        fns = _factories(2)
        fast = SyncVectorEnv(fns)
        slow = SyncVectorEnv(fns, batch_physics=False)
        fast.reset(seed=5)
        slow.reset(seed=5)
        result_fast = fast.step(np.array([0, 1]))
        result_slow = slow.step(np.array([0, 1]))
        assert result_fast.infos == result_slow.infos
        assert result_fast.infos[0]["steps"] == 1

    def test_batch_dynamics_matches_scalar_dynamics(self):
        env = CartPoleEnv(seed=3)
        env.reset()
        rng = np.random.default_rng(1)
        states = rng.uniform(-0.1, 0.1, size=(8, 4))
        actions = rng.integers(0, 2, size=8)
        batched = CartPoleEnv.batch_dynamics(states, actions, env.params)
        for i in range(8):
            scalar = env._dynamics(states[i], int(actions[i]))
            np.testing.assert_array_equal(batched[i], scalar)


class TestMakeVector:
    def test_builds_sync(self):
        venv = make_vector("CartPole-v0", 2, seed=5)
        assert isinstance(venv, SyncVectorEnv) and venv.num_envs == 2

    def test_seeded_construction_reproducible(self):
        a, _ = make_vector("CartPole-v0", 2, seed=5).reset()
        b, _ = make_vector("CartPole-v0", 2, seed=5).reset()
        np.testing.assert_array_equal(a, b)

    def test_builds_subproc_matching_sync(self):
        with make_vector("CartPole-v0", 2, seed=5, vectorization="subproc") as venv:
            assert isinstance(venv, SubprocVectorEnv) and venv.num_envs == 2
            observations, _ = venv.reset()
        expected, _ = make_vector("CartPole-v0", 2, seed=5).reset()
        np.testing.assert_array_equal(observations, expected)

    def test_forwards_env_kwargs(self):
        venv = make_vector("CartPole-v0", 2, seed=5, max_episode_steps=2)
        venv.reset()
        venv.step(np.array([0, 0]))
        result = venv.step(np.array([0, 0]))
        assert result.truncated.all()

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            make_vector("CartPole-v0", 0)
        for vectorization in ("threads", "async"):
            with pytest.raises(ValueError):
                make_vector("CartPole-v0", 2, vectorization=vectorization)
        with pytest.raises(KeyError):
            make_vector("NoSuchEnv-v0", 2)


class TestSubprocVectorEnv:
    def test_matches_sync_step_for_step(self):
        fns = _factories(3, base_seed=500)
        sync_env = SyncVectorEnv(fns)
        subproc_env = SubprocVectorEnv(fns)
        try:
            obs_sync, _ = sync_env.reset()
            obs_sub, _ = subproc_env.reset()
            np.testing.assert_array_equal(obs_sync, obs_sub)
            rng = np.random.default_rng(9)
            for _ in range(120):
                actions = rng.integers(0, 2, size=3)
                result_sync = sync_env.step(actions)
                result_sub = subproc_env.step(actions)
                np.testing.assert_array_equal(result_sync.observations,
                                              result_sub.observations)
                np.testing.assert_array_equal(result_sync.terminated,
                                              result_sub.terminated)
                np.testing.assert_array_equal(result_sync.truncated,
                                              result_sub.truncated)
        finally:
            subproc_env.close()

    def test_autoreset_final_observation(self):
        venv = SubprocVectorEnv(_factories(2, max_episode_steps=3))
        try:
            venv.reset(seed=3)
            result = None
            for _ in range(3):
                result = venv.step(np.array([1, 1]))
            for i in np.flatnonzero(result.dones):
                assert "final_observation" in result.infos[i]
        finally:
            venv.close()

    def test_requires_env_fns(self):
        with pytest.raises(ValueError):
            SubprocVectorEnv([])

    def test_wrong_action_count_rejected(self):
        with SubprocVectorEnv(_factories(2)) as venv:
            venv.reset()
            with pytest.raises(ValueError):
                venv.step(np.array([0, 1, 0]))

    def test_reset_mid_episode_matches_fresh_sync_reset(self):
        fns = _factories(2, base_seed=300)
        with SubprocVectorEnv(fns) as venv, SyncVectorEnv(fns) as reference:
            venv.reset(seed=8)
            for _ in range(5):
                venv.step(np.array([1, 0]))
            observations, _ = venv.reset(seed=8)
            expected, _ = reference.reset(seed=8)
        np.testing.assert_array_equal(observations, expected)

    def test_context_manager_stops_workers(self):
        with SubprocVectorEnv(_factories(2)) as venv:
            venv.reset()
            processes = list(venv._processes)
            assert all(process.is_alive() for process in processes)
        assert not any(process.is_alive() for process in processes)

    def test_closed_env_rejects_use(self):
        venv = SubprocVectorEnv(_factories(1))
        venv.close()
        with pytest.raises(RuntimeError):
            venv.reset()
        venv.close()  # idempotent

    def test_worker_exceptions_propagate(self):
        """Env errors inside a worker must re-raise in the parent instead of
        killing the pipe (step-before-reset is the canonical misuse)."""
        venv = SubprocVectorEnv(_factories(1))
        try:
            with pytest.raises(RuntimeError, match="before reset"):
                venv.step(np.array([0]))
        finally:
            venv.close()


class TestSubprocStepsPerMessage:
    """Frame-skip batching: k env steps per pipe message."""

    def test_invalid_steps_per_message(self):
        with pytest.raises(ValueError):
            SubprocVectorEnv(_factories(1), steps_per_message=0)

    def test_matches_manual_frame_skip_on_sync(self):
        """One batched step(action) must equal k Sync steps of the repeated
        action (stopping at episode end), with the rewards summed."""
        k = 4
        fns = _factories(2, base_seed=700)
        sync_env = SyncVectorEnv(fns)
        batched = SubprocVectorEnv(fns, steps_per_message=k)
        try:
            obs_sync, _ = sync_env.reset()
            obs_sub, _ = batched.reset()
            np.testing.assert_array_equal(obs_sync, obs_sub)
            rng = np.random.default_rng(41)
            for _ in range(60):
                actions = rng.integers(0, 2, size=2)
                result_sub = batched.step(actions)
                # Manual frame skip on the Sync env, per sub-env.
                expected_obs = np.empty_like(result_sub.observations)
                expected_reward = np.zeros(2)
                expected_frames = np.zeros(2, dtype=int)
                done = np.zeros(2, dtype=bool)
                for _frame in range(k):
                    live = ~done
                    if not live.any():
                        break
                    result_sync = sync_env.step(actions)
                    expected_reward[live] += result_sync.rewards[live]
                    expected_frames[live] += 1
                    expected_obs[live] = result_sync.observations[live]
                    done |= result_sync.dones
                    # NOTE: Sync auto-resets finished sub-envs, so a done
                    # sub-env keeps stepping its *next* episode here — the
                    # batched env must NOT have taken those frames.  This
                    # only stays trajectory-exact while no sub-env finishes
                    # mid-window, so the loop below re-syncs on divergence.
                np.testing.assert_array_equal(result_sub.rewards[~done],
                                              expected_reward[~done])
                np.testing.assert_array_equal(result_sub.observations[~done],
                                              expected_obs[~done])
                for i in range(2):
                    assert result_sub.infos[i]["frames"] <= k
                if done.any():
                    break   # streams diverge once an episode ends mid-window
        finally:
            batched.close()
            sync_env.close()

    def test_early_stop_at_episode_end(self):
        """With max_episode_steps=3 and k=10 the worker must stop after 3
        frames, report frames=3 and auto-reset."""
        venv = SubprocVectorEnv(_factories(1, max_episode_steps=3),
                                steps_per_message=10)
        try:
            venv.reset(seed=11)
            result = venv.step(np.array([1]))
            assert result.infos[0]["frames"] == 3
            assert result.truncated[0]
            assert result.rewards[0] == pytest.approx(3.0)   # summed unit rewards
            assert "final_observation" in result.infos[0]
        finally:
            venv.close()

    def test_k1_stays_identical_to_sync(self):
        """steps_per_message=1 must not change the protocol semantics."""
        fns = _factories(2, base_seed=900)
        sync_env = SyncVectorEnv(fns)
        subproc_env = SubprocVectorEnv(fns, steps_per_message=1)
        try:
            obs_sync, _ = sync_env.reset()
            obs_sub, _ = subproc_env.reset()
            np.testing.assert_array_equal(obs_sync, obs_sub)
            for _ in range(50):
                actions = np.array([0, 1])
                result_sync = sync_env.step(actions)
                result_sub = subproc_env.step(actions)
                np.testing.assert_array_equal(result_sync.observations,
                                              result_sub.observations)
                np.testing.assert_array_equal(result_sync.rewards,
                                              result_sub.rewards)
                assert all("frames" not in info for info in result_sub.infos)
        finally:
            subproc_env.close()
            sync_env.close()
