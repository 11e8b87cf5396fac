"""The validate-once contract: checked public entry points, trusted kernels.

See the ``repro.utils.validation`` module docstring for the contract these
tests pin down.
"""

import numpy as np
import pytest

from repro.core.agents import AgentConfig, ELMQAgent, OSELMQAgent
from repro.core.clipping import clip_q_target, q_learning_target, q_learning_targets
from repro.core.designs import make_design
from repro.core.elm import ELM
from repro.core.os_elm import OSELM
from repro.core.qfunction import QFunction
from repro.core.regularization import RegularizationConfig
from repro.linalg.incremental import (
    RecursiveInverse,
    beta_update,
    rank1_update,
    sherman_morrison_update,
    woodbury_update,
)
from repro.utils.exceptions import ShapeError
from repro.utils.validation import check_finite_scalar, check_finite_vector

BAD_VALUES = [np.nan, np.inf, -np.inf]


def _poison(array, value, index=0):
    out = np.array(array, dtype=float)
    out.flat[index] = value
    return out


@pytest.fixture
def fitted_oselm(rng):
    model = OSELM(5, 8, 1, regularization=RegularizationConfig.l2(0.5), seed=0)
    model.init_train(rng.normal(size=(20, 5)), rng.normal(size=(20, 1)))
    return model


# ---------------------------------------------------------------------- public entry points
class TestModelEntryPoints:
    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_elm_rejects_non_finite(self, rng, bad):
        model = ELM(5, 8, 1, seed=0)
        x, t = rng.normal(size=(10, 5)), rng.normal(size=(10, 1))
        with pytest.raises(ValueError):
            model.fit(_poison(x, bad, 7), t)
        with pytest.raises(ValueError):
            model.fit(x, _poison(t, bad, 3))
        with pytest.raises(ValueError):
            model.hidden(_poison(x, bad))
        model.fit(x, t)
        with pytest.raises(ValueError):
            model.predict(_poison(x[0], bad, 4))

    def test_elm_rejects_wrong_shapes(self, rng):
        model = ELM(5, 8, 1, seed=0)
        with pytest.raises(ShapeError):
            model.fit(rng.normal(size=(10, 4)), rng.normal(size=(10, 1)))
        with pytest.raises(ShapeError):
            model.fit(rng.normal(size=(10, 5)), rng.normal(size=(10, 2)))
        with pytest.raises(ShapeError):
            model.hidden(rng.normal(size=(2, 2, 5)))
        model.fit(rng.normal(size=(10, 5)), rng.normal(size=(10, 1)))
        with pytest.raises(ShapeError):
            model.predict(rng.normal(size=6))

    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_oselm_rejects_non_finite(self, rng, fitted_oselm, bad):
        fresh = OSELM(5, 8, 1, regularization=RegularizationConfig.l2(0.5), seed=0)
        with pytest.raises(ValueError):
            fresh.init_train(_poison(rng.normal(size=(20, 5)), bad, 11),
                             rng.normal(size=(20, 1)))
        with pytest.raises(ValueError):
            fitted_oselm.partial_fit(rng.normal(size=(1, 5)), _poison([[0.5]], bad))
        with pytest.raises(ValueError):
            fitted_oselm.seq_train_step(_poison(rng.normal(size=5), bad, 2), 0.5)
        with pytest.raises(ValueError):
            fitted_oselm.seq_train_step(rng.normal(size=5), bad)

    def test_oselm_rejects_wrong_shapes(self, rng, fitted_oselm):
        with pytest.raises(ShapeError):
            fitted_oselm.partial_fit(rng.normal(size=(1, 4)), [[0.5]])
        with pytest.raises(ShapeError):
            fitted_oselm.seq_train_step(rng.normal(size=6), 0.5)
        with pytest.raises(ValueError):
            fitted_oselm.partial_fit(rng.normal(size=(2, 5)), [[0.5]])

    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_qfunction_rejects_non_finite(self, rng, bad):
        model = ELM(5, 8, 1, seed=0)
        qf = QFunction(model, n_states=4, n_actions=2)
        qf.fit_batch(rng.normal(size=(10, 4)), rng.integers(2, size=10),
                     rng.normal(size=10))
        state = _poison(rng.normal(size=4), bad, 1)
        for method in (qf.q_values, qf.greedy_action, qf.max_q):
            with pytest.raises(ValueError):
                method(state)
        with pytest.raises(ValueError):
            qf.value(state, 0)
        with pytest.raises(ValueError):
            qf.fit_batch(rng.normal(size=(10, 4)), rng.integers(2, size=10),
                         _poison(rng.normal(size=10), bad, 5))

    def test_qfunction_update_rejects_non_finite(self, rng, fitted_oselm):
        qf = QFunction(fitted_oselm, n_states=4, n_actions=2)
        with pytest.raises(ValueError):
            qf.update(_poison(rng.normal(size=4), np.nan), 1, 0.5)
        with pytest.raises(ValueError):
            qf.update(rng.normal(size=4), 1, np.inf)


class TestLinalgEntryPoints:
    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_reject_non_finite(self, rng, bad):
        p, h = np.eye(4), rng.normal(size=(1, 4))
        beta, t = rng.normal(size=(4, 1)), rng.normal(size=(1, 1))
        with pytest.raises(ValueError):
            sherman_morrison_update(_poison(p, bad, 5), h[0])
        with pytest.raises(ValueError):
            sherman_morrison_update(p, _poison(h[0], bad, 2))
        with pytest.raises(ValueError):
            woodbury_update(p, _poison(rng.normal(size=(3, 4)), bad, 6))
        with pytest.raises(ValueError):
            beta_update(_poison(beta, bad), p, h, t)
        with pytest.raises(ValueError):
            beta_update(beta, p, h, _poison(t, bad))
        with pytest.raises(ValueError):
            RecursiveInverse(_poison(p, bad), beta)
        tracker = RecursiveInverse(p, beta)
        with pytest.raises(ValueError):
            tracker.update(_poison(h, bad, 1), t)
        with pytest.raises(ValueError):
            tracker.update(h, _poison(t, bad))
        assert tracker.updates == 0

    def test_reject_wrong_shapes(self, rng):
        p, beta = np.eye(4), rng.normal(size=(4, 1))
        with pytest.raises(ShapeError):
            sherman_morrison_update(np.ones((4, 3)), np.ones(4))
        with pytest.raises(ShapeError):
            sherman_morrison_update(p, np.ones(3))
        with pytest.raises(ShapeError):
            woodbury_update(p, np.ones((2, 5)))
        with pytest.raises(ShapeError):
            beta_update(beta, p, np.ones((1, 3)), np.ones((1, 1)))
        with pytest.raises(ShapeError):
            beta_update(beta, p, np.ones((1, 4)), np.ones((2, 1)))
        with pytest.raises(ValueError):
            RecursiveInverse(p, rng.normal(size=(3, 1)))
        with pytest.raises(ValueError):
            RecursiveInverse(p, beta).update(np.ones((1, 4)), np.ones((1, 2)))


class TestAgentConstruction:
    def test_config_is_validated(self):
        with pytest.raises(ValueError):
            AgentConfig(n_states=4, n_actions=0)
        with pytest.raises(ValueError):
            AgentConfig(n_states=4, n_actions=2, update_probability=-0.1)
        with pytest.raises(ValueError):
            AgentConfig(n_states=4, n_actions=2, clip_low=1.0, clip_high=-1.0)

    def test_model_size_is_validated(self):
        with pytest.raises(ValueError):
            OSELMQAgent(AgentConfig(n_states=4, n_actions=2, n_hidden=8),
                        model=OSELM(6, 8, 1, seed=0))


# ---------------------------------------------------------------------- the agent boundary
def _train(agent, rng, steps):
    state = rng.uniform(-0.05, 0.05, size=4)
    for _ in range(steps):
        action = agent.act(state)
        next_state = state + rng.normal(scale=0.01, size=4)
        agent.observe(state, action, float(rng.uniform(-1, 1)), next_state, False)
        state = next_state
    return state


@pytest.fixture(params=["ELM", "OS-ELM-L2-Lipschitz", "FPGA"])
def trained_agent(request, rng):
    agent = make_design(request.param, n_hidden=8, seed=0, update_probability=1.0)
    _train(agent, rng, 12)
    assert agent.initial_training_done
    return agent


class TestAgentBoundary:
    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_act_rejects_non_finite_state(self, trained_agent, bad):
        with pytest.raises(ValueError):
            trained_agent.act(_poison(np.zeros(4), bad, 3))
        with pytest.raises(ValueError):
            trained_agent.act(_poison(np.zeros(4), bad, 3), explore=False)

    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_observe_rejects_non_finite_inputs(self, trained_agent, bad):
        state, poisoned = np.zeros(4), _poison(np.zeros(4), bad, 2)
        steps = trained_agent.global_step
        with pytest.raises(ValueError):
            trained_agent.observe(poisoned, 0, 0.0, state, False)
        with pytest.raises(ValueError):
            trained_agent.observe(state, 0, 0.0, poisoned, False)
        with pytest.raises(ValueError):
            trained_agent.observe(state, 0, bad, state, False)
        assert trained_agent.global_step == steps

    def test_untrained_agent_checks_too(self):
        agent = ELMQAgent(AgentConfig(n_states=4, n_actions=2, n_hidden=8, seed=0))
        with pytest.raises(ValueError):
            agent.act([0.0, np.nan, 0.0, 0.0])
        with pytest.raises(ValueError):
            agent.observe(np.zeros(4), 1, 0.0, [np.inf, 0, 0, 0], False)
        assert len(agent.buffer) == 0

    def test_rejects_wrong_shapes_and_actions(self, trained_agent):
        with pytest.raises(ShapeError):
            trained_agent.act(np.zeros(5))
        with pytest.raises(ShapeError):
            trained_agent.observe(np.zeros(4), 0, 0.0, np.zeros(3), False)
        with pytest.raises(ValueError):
            trained_agent.observe(np.zeros(4), 2, 0.0, np.zeros(4), False)
        with pytest.raises(ValueError):
            trained_agent.observe(np.zeros(4), -1, 0.0, np.zeros(4), False)

    def test_non_finite_target_raises(self, rng):
        agent = make_design("OS-ELM-L2", n_hidden=8, seed=0, update_probability=1.0,
                            clip_targets=False)
        _train(agent, rng, 12)
        agent._target_beta = np.full_like(agent._target_beta, 1e308)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="target"):
            agent.observe(np.zeros(4), 0, 0.0, np.ones(4), False)


# ---------------------------------------------------------------------- the fused update
class TestFusedRankOneUpdate:
    def test_matches_public_pair_bit_for_bit(self, rng):
        a = rng.normal(size=(6, 6))
        p = a @ a.T + np.eye(6)
        beta, h, t = rng.normal(size=(6, 1)), rng.normal(size=(1, 6)), rng.normal(size=(1, 1))
        p_pub = sherman_morrison_update(p, h[0])
        beta_pub = beta_update(beta, p_pub, h, t)
        p_new, beta_new = rank1_update(p, beta, h, t)
        np.testing.assert_array_equal(p_new, p_pub)
        np.testing.assert_array_equal(beta_new, beta_pub)
        _, beta_scalar = rank1_update(p, beta, h, float(t[0, 0]))
        np.testing.assert_array_equal(beta_scalar, beta_pub)

    def test_non_positive_denominator_is_skipped(self):
        assert rank1_update(-np.eye(3), np.zeros((3, 1)), np.ones((1, 3)), 1.0) is None

    def test_non_finite_output_raises(self):
        with np.errstate(all="ignore"), pytest.raises(ValueError):
            rank1_update(np.eye(3) * 1e308, np.zeros((3, 1)), np.full((1, 3), 1e10), 1.0)

    def test_nan_planted_in_p_raises_on_next_agent_update(self, rng):
        agent = make_design("OS-ELM-L2", n_hidden=8, seed=0, update_probability=1.0)
        state = _train(agent, rng, 12)
        recursive = agent.model._recursive
        recursive.p = recursive.p.copy()
        recursive.p[3, 5] = np.nan
        beta_before, updates = recursive.beta.copy(), recursive.updates
        with pytest.raises(ValueError, match="NaN or Inf"):
            agent.observe(state, 0, 0.0, state, False)
        assert recursive.updates == updates
        np.testing.assert_array_equal(recursive.beta, beta_before)

    def test_non_positive_denominator_counts_skipped_update(self, rng):
        agent = make_design("OS-ELM", n_hidden=8, seed=0, update_probability=1.0)
        state = _train(agent, rng, 12)
        recursive = agent.model._recursive
        recursive.p = -np.eye(8)
        beta_before, updates = recursive.beta.copy(), recursive.updates
        seq_before = agent.breakdown.counts.get("seq_train", 0)
        agent.observe(state, 1, 0.0, state, False)
        assert agent.skipped_updates == 1
        assert recursive.updates == updates
        np.testing.assert_array_equal(agent.model.beta, beta_before)
        assert agent.breakdown.counts["seq_train"] == seq_before + 1


# ---------------------------------------------------------------------- helpers
class TestHelpers:
    @pytest.mark.parametrize("bad", BAD_VALUES)
    @pytest.mark.parametrize("index", range(4))
    def test_check_finite_vector(self, bad, index):
        with pytest.raises(ValueError):
            check_finite_vector(_poison(np.ones(4), bad, index), 4)

    def test_check_finite_vector_shapes(self):
        np.testing.assert_array_equal(check_finite_vector([[1, 2, 3]], 3), [1.0, 2.0, 3.0])
        huge = np.full(4, 1e308)          # the sum overflows; the elements are finite
        with np.errstate(over="ignore"):
            assert check_finite_vector(huge, 4) is huge
        with pytest.raises(ShapeError):
            check_finite_vector(np.ones(5), 4)

    def test_check_finite_scalar(self):
        assert check_finite_scalar(np.float64(2.5)) == 2.5
        for bad in BAD_VALUES:
            with pytest.raises(ValueError):
                check_finite_scalar(bad)

    @pytest.mark.parametrize("value", [-0.0, 0.0, -1.0, 1.0, 0.3, -2.0, 2.0, np.inf, -np.inf])
    @pytest.mark.parametrize("bounds", [(-1.0, 1.0), (0.0, 0.0), (-0.0, 0.0), (0.0, 1.0)])
    def test_clip_matches_numpy_bit_for_bit(self, value, bounds):
        expected = float(np.clip(value, *bounds))
        assert clip_q_target(value, *bounds).hex() == expected.hex()

    def test_vectorized_targets_match_scalar(self, rng):
        rewards = rng.uniform(-1, 1, size=50)
        dones = rng.random(50) < 0.3
        max_next = rng.normal(scale=2.0, size=50)
        for clip in (True, False):
            batch = q_learning_targets(rewards, dones, max_next, gamma=0.97, clip=clip)
            scalar = [q_learning_target(r, d, m, gamma=0.97, clip=clip)
                      for r, d, m in zip(rewards, dones, max_next)]
            assert [float(x).hex() for x in batch] == [x.hex() for x in scalar]
