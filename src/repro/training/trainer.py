"""The one canonical training loop behind every design in the paper.

``Trainer`` drives Algorithm 1's outer loops (episodes x steps) for any
agent implementing :class:`~repro.training.protocols.AgentProtocol`, with:

* optional reward shaping so the clipped targets stay in [-1, 1],
* the 100-episode moving-average solved criterion,
* the 300-episode stall-reset rule (via ``register_progress``),
* the 50,000-episode "impossible" cutoff,
* a typed :class:`~repro.training.callbacks.Callback` lifecycle
  (progress streaming, metric recording, mid-trial checkpointing),
* ``action_repeat`` (frame-skip) stepping that pairs with
  ``SubprocVectorEnv(steps_per_message=k)`` / ``AsyncVectorEnv``.

Two drivers share that one set of episode semantics:

:meth:`Trainer.fit`
    One agent against one scalar :class:`~repro.envs.core.Env` — the
    paper's on-device loop, one transition at a time.
:meth:`Trainer.fit_lockstep`
    N independent trials advanced in lock-step through one vector env,
    delegating the per-step math to a
    :mod:`~repro.training.strategies` object: the batched ELM/OS-ELM
    strategy (stacked matmuls + batched Sherman-Morrison) or the generic strategy that drives *any*
    protocol agent — which is what finally lets the DQN baseline and the
    FPGA fixed-point design train under the lock-step backend.  Per-trial
    results are bit-for-bit those of the serial driver on fixed seeds.

Every per-episode decision — criterion update, record construction, solved
handling, the stall-reset rule, callback firing — lives in exactly one
place (:meth:`Trainer._finish_episode`), so the three historical loops can
no longer drift apart.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Union

import numpy as np

from repro.core.clipping import shaped_cartpole_reward
from repro.envs.core import Env
from repro.envs.registry import make as make_env
from repro.training.callbacks import (
    Callback,
    CallbackList,
    CheckpointCallback,
    MetricsRecorder,
    StepEvent,
)
from repro.telemetry.tracing import span
from repro.training.config import TrainingConfig
from repro.training.records import EpisodeRecord, TrainingCurve, TrainingResult
from repro.utils.logging import get_logger
from repro.utils.metrics import SolvedCriterion

_LOGGER = get_logger("repro.training.trainer")

#: Format tag inside pickled mid-trial checkpoints (bumped on layout change).
CHECKPOINT_STATE_VERSION = 1


class TrialState:
    """Canonical per-trial bookkeeping, shared by both drivers."""

    __slots__ = ("index", "agent", "config", "criterion", "episode", "steps",
                 "shaped_return", "active", "solved", "episodes_to_solve")

    def __init__(self, index: int, agent: Any, config: TrainingConfig) -> None:
        self.index = index
        self.agent = agent
        self.config = config
        self.criterion = SolvedCriterion(config.solved_threshold,
                                         config.solved_window,
                                         config.max_episodes)
        self.episode = 1
        self.steps = 0
        self.shaped_return = 0.0
        self.active = True
        self.solved = False
        self.episodes_to_solve: Optional[int] = None


@dataclass
class TrainingRun:
    """What ``on_train_start`` / ``on_train_end`` see: the whole fit call."""

    mode: str                               #: "serial" or "lockstep"
    trials: List[TrialState] = field(default_factory=list)
    strategy: Optional[str] = None          #: lock-step strategy name, if any
    resumed: bool = False                   #: serial driver restored a checkpoint


def resolve_env(env: Union[str, Env, None], config: TrainingConfig) -> Env:
    """Build (or pass through) the scalar env one serial trial runs in."""
    if env is None:
        env = config.env_id
    if isinstance(env, str):
        kwargs = dict(config.env_params)
        if config.max_steps_per_episode is not None:
            kwargs["max_episode_steps"] = config.max_steps_per_episode
        return make_env(env, seed=config.seed, **kwargs)
    return env


class Trainer:
    """Drive the canonical episode/step loop over one or many trials.

    Parameters
    ----------
    callbacks:
        :class:`~repro.training.callbacks.Callback` instances observing the
        run.  A :class:`MetricsRecorder` is appended automatically when none
        is present (the trainer needs the curves it collects); a
        :class:`CheckpointCallback` additionally enables mid-trial
        checkpoint/resume on the serial driver.
    """

    def __init__(self, *, callbacks: Sequence[Callback] = ()) -> None:
        self.callbacks = CallbackList(callbacks)
        recorder = self.callbacks.first_of(MetricsRecorder)
        if recorder is None:
            recorder = MetricsRecorder()
            self.callbacks.callbacks.append(recorder)
        self.recorder: MetricsRecorder = recorder

    # ------------------------------------------------------------------ shared episode semantics
    def _shaped_reward(self, trial: TrialState, terminated: bool,
                       truncated: bool, raw_reward: float) -> float:
        if trial.config.reward_shaping:
            return shaped_cartpole_reward(terminated, truncated, trial.steps,
                                          success_steps=trial.config.success_steps)
        return float(raw_reward)

    def _finish_episode(self, trial: TrialState, *,
                        prepare_record=None) -> tuple:
        """Criterion update + record + solved/reset handling for one episode.

        Returns ``(now_solved, stop, reset_occurred)``: whether the solved
        criterion fired this episode, whether the trial should stop, and
        whether the stall-reset rule re-initialised the agent's weights.
        """
        agent = trial.agent
        config = trial.config
        now_solved = trial.criterion.update(trial.steps)
        record = EpisodeRecord(
            episode=trial.episode,
            steps=trial.steps,
            shaped_return=trial.shaped_return,
            moving_average=trial.criterion.average,
        )
        if config.record_lipschitz and hasattr(agent, "lipschitz_upper_bound"):
            if prepare_record is not None:
                prepare_record(trial.index)
            record.lipschitz_bound = agent.lipschitz_upper_bound()
            if hasattr(agent, "beta_norm"):
                record.beta_norm = agent.beta_norm()
        self.callbacks.episode_end(trial, record)

        stop = False
        if now_solved and trial.episodes_to_solve is None:
            trial.episodes_to_solve = trial.episode
            trial.solved = True
            _LOGGER.info("task solved", design=getattr(agent, "name", "agent"),
                         episode=trial.episode)
            if config.stop_when_solved:
                return now_solved, True, False
        reset_occurred = False
        if hasattr(agent, "register_progress"):
            resets_before = getattr(agent, "weight_resets", 0)
            agent.register_progress(now_solved)
            reset_occurred = getattr(agent, "weight_resets", 0) != resets_before
        if trial.episode >= config.max_episodes:
            stop = True
        return now_solved, stop, reset_occurred

    def _result(self, trial: TrialState, n_hidden: int,
                wall_time: float) -> TrainingResult:
        agent = trial.agent
        curve = self.recorder.curve(trial.index)
        return TrainingResult(
            design=getattr(agent, "name", "agent"),
            n_hidden=int(n_hidden),
            solved=trial.solved,
            episodes=len(curve),
            episodes_to_solve=trial.episodes_to_solve,
            wall_time_seconds=wall_time,
            curve=curve,
            breakdown=agent.breakdown,
            weight_resets=getattr(agent, "weight_resets", 0),
            seed=trial.config.seed,
        )

    # ------------------------------------------------------------------ serial driver
    def fit(self, agent: Any, env: Union[str, Env, None] = None, *,
            config: TrainingConfig = TrainingConfig(),
            n_hidden: Optional[int] = None) -> TrainingResult:
        """Train one agent until solved or the episode budget is exhausted.

        Parameters
        ----------
        agent:
            Any :class:`~repro.training.protocols.AgentProtocol` agent.
        env:
            Environment instance, registered id, or ``None`` to build
            ``config.env_id``.
        config:
            Protocol parameters.
        n_hidden:
            Recorded in the result for reporting; inferred from the agent's
            config when omitted.
        """
        environment = resolve_env(env, config)
        if n_hidden is None:
            n_hidden = getattr(getattr(agent, "config", None), "n_hidden", 0)
        trial = TrialState(0, agent, config)
        self.recorder.curves[trial.index] = TrainingCurve()
        checkpoint = self.callbacks.first_of(CheckpointCallback)
        elapsed_before = 0.0
        resumed = False
        if checkpoint is not None:
            restored = self._load_checkpoint(checkpoint, config)
            if restored is not None:
                trial, environment, elapsed_before = restored
                agent = trial.agent
                resumed = True
                _LOGGER.info("resumed mid-trial", design=getattr(agent, "name", "agent"),
                             episode=trial.episode)
        run = TrainingRun(mode="serial", trials=[trial], resumed=resumed)
        self.callbacks.train_start(run)
        emit_steps = self.callbacks.wants_steps
        repeat = config.action_repeat
        start_wall = time.perf_counter()

        stop = trial.solved and config.stop_when_solved
        while not stop and trial.episode <= config.max_episodes:
            with span("trial.episode"):
                agent.begin_episode(trial.episode)
                self.callbacks.episode_start(trial)
                state, _ = environment.reset()
                trial.steps = 0
                trial.shaped_return = 0.0
                done = False
                while not done:
                    action = agent.act(state)
                    frames = 0
                    raw_reward = 0.0
                    for _ in range(repeat):
                        result = environment.step(action)
                        trial.steps += 1
                        frames += 1
                        raw_reward += result.reward
                        if result.done:
                            break
                    reward = self._shaped_reward(trial, result.terminated,
                                                 result.truncated, raw_reward)
                    trial.shaped_return += reward
                    agent.observe(state, action, reward, result.observation,
                                  result.done)
                    if emit_steps:
                        self.callbacks.step(trial, StepEvent(
                            state=state, action=action, reward=reward,
                            next_state=result.observation, done=result.done,
                            frames=frames))
                    state = result.observation
                    done = result.done
                agent.end_episode(trial.episode)
                _, stop, _ = self._finish_episode(trial)
                if checkpoint is not None and checkpoint.due_after_episode() and not stop:
                    self._save_checkpoint(checkpoint, trial, environment,
                                          elapsed_before + time.perf_counter() - start_wall)
                    self.callbacks.checkpoint(trial)
                trial.episode += 1
        trial.episode -= 1          # back to the last episode actually run

        wall_time = elapsed_before + time.perf_counter() - start_wall
        if checkpoint is not None:
            checkpoint.clear()      # the finished artifact supersedes mid-trial state
        result = self._result(trial, n_hidden, wall_time)
        self.callbacks.train_end(run, [result])
        return result

    # ------------------------------------------------------------------ serial checkpointing
    def _save_checkpoint(self, checkpoint: CheckpointCallback, trial: TrialState,
                         environment: Env, elapsed: float) -> None:
        payload = {
            "version": CHECKPOINT_STATE_VERSION,
            "agent": trial.agent,
            "environment": environment,
            "episode": trial.episode,           # last completed episode
            "criterion": trial.criterion,
            "curve": self.recorder.curve(trial.index),
            "solved": trial.solved,
            "episodes_to_solve": trial.episodes_to_solve,
            "elapsed_seconds": elapsed,
        }
        checkpoint.save(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    def _load_checkpoint(self, checkpoint: CheckpointCallback,
                         config: TrainingConfig):
        blob = checkpoint.load()
        if blob is None:
            return None
        try:
            payload = pickle.loads(blob)
            if payload.get("version") != CHECKPOINT_STATE_VERSION:
                return None
        except Exception:           # corrupt blob reads as "no checkpoint"
            _LOGGER.warning("ignoring unreadable mid-trial checkpoint")
            return None
        # Rebuild the trial around the *restored* protocol state.  The config
        # is the caller's (it defines the budget); everything mutable comes
        # from the snapshot.
        trial = TrialState(0, payload["agent"], config)
        return self._restore_trial(trial, payload), payload["environment"], \
            payload["elapsed_seconds"]

    def _restore_trial(self, trial: TrialState, payload: dict) -> TrialState:
        trial.criterion = payload["criterion"]
        trial.episode = payload["episode"] + 1     # resume at the next episode
        trial.solved = payload["solved"]
        trial.episodes_to_solve = payload["episodes_to_solve"]
        self.recorder.curves[trial.index] = payload["curve"]
        return trial

    # ------------------------------------------------------------------ lock-step driver
    def fit_lockstep(self, agents: Sequence[Any],
                     configs: Sequence[TrainingConfig], *,
                     venv: Optional[Any] = None,
                     strategy: Union[str, Any] = "auto") -> List[TrainingResult]:
        """Train N independent trials in lock-step; one result per trial.

        Parameters
        ----------
        agents, configs:
            One protocol agent and one :class:`TrainingConfig` per trial.
            ``env_id`` (and ``action_repeat``) must match across the batch —
            one vector env drives every trial; budgets, thresholds and seeds
            may differ per trial.
        venv:
            Pre-built vector env (one sub-env per trial, in trial order).
            Built from the configs when omitted: a
            :class:`~repro.parallel.vector_env.SyncVectorEnv` normally, or a
            ``SubprocVectorEnv(steps_per_message=action_repeat)`` when the
            batch uses frame skip.
        strategy:
            ``"auto"`` picks the batched ELM/OS-ELM strategy when every
            agent qualifies (see
            :func:`~repro.training.strategies.supports_lockstep`) and the
            generic per-agent strategy otherwise; ``"batched"`` /
            ``"generic"`` force one; or pass a strategy instance.
        """
        from repro.training import strategies as _strategies

        if not agents:
            raise ValueError("fit_lockstep needs at least one agent")
        if len(agents) != len(configs):
            raise ValueError(f"got {len(agents)} agents but {len(configs)} configs")
        env_ids = {config.env_id for config in configs}
        if len(env_ids) != 1:
            raise ValueError(
                f"all trials in a lock-step batch must share env_id, got {env_ids}")
        repeats = {config.action_repeat for config in configs}
        if len(repeats) != 1:
            raise ValueError(
                f"all trials in a lock-step batch must share action_repeat, got {repeats}")
        repeat = repeats.pop()

        strat = _strategies.resolve_strategy(strategy, agents)
        trials = [TrialState(i, agent, config)
                  for i, (agent, config) in enumerate(zip(agents, configs))]
        owns_venv = venv is None
        if venv is None:
            venv = _build_vector_env(configs, action_repeat=repeat)
        if venv.num_envs != len(trials):
            raise ValueError(
                f"vector env has {venv.num_envs} sub-envs for {len(trials)} trials")
        if repeat > 1 and getattr(venv, "steps_per_message", 1) != repeat:
            raise ValueError(
                "action_repeat > 1 on the lock-step driver needs a vector env "
                "with matching frame skip (SubprocVectorEnv/AsyncVectorEnv "
                f"steps_per_message={repeat}); got "
                f"{type(venv).__name__}(steps_per_message="
                f"{getattr(venv, 'steps_per_message', 1)})")

        try:
            with span("trainer.fit_lockstep"):
                return self._run_lockstep(trials, venv, strat, repeat)
        finally:
            if owns_venv:
                venv.close()

    def _run_lockstep(self, trials: List[TrialState], venv: Any, strat: Any,
                      repeat: int) -> List[TrainingResult]:
        run = TrainingRun(mode="lockstep", trials=trials,
                          strategy=type(strat).__name__)
        for trial in trials:
            self.recorder.curves[trial.index] = TrainingCurve()
        self.callbacks.train_start(run)
        emit_steps = self.callbacks.wants_steps
        n_trials = len(trials)
        strat.bind(trials, venv)

        start_wall = time.perf_counter()
        for trial in trials:
            trial.agent.begin_episode(trial.episode)
            self.callbacks.episode_start(trial)
        states, _ = venv.reset()
        strat.start(states)
        actions = np.zeros(n_trials, dtype=np.int64)
        active_indices = list(range(n_trials))

        while active_indices:
            raw_actions = strat.select_actions(states, actions, active_indices)
            step = venv.step(actions)
            strat.post_env_step(step)

            finished: List[int] = []
            terminated_flags = step.terminated.tolist()
            truncated_flags = step.truncated.tolist()
            for i in active_indices:
                trial = trials[i]
                term, trunc = terminated_flags[i], truncated_flags[i]
                done = term or trunc
                info = step.infos[i]
                trial.steps += info.get("frames", 1) if repeat > 1 else 1
                next_obs = (info["final_observation"] if done
                            else step.observations[i])
                reward = self._shaped_reward(trial, term, trunc,
                                             float(step.rewards[i]))
                trial.shaped_return += reward
                strat.observe(i, states[i], raw_actions[i], reward, next_obs, done)
                if emit_steps:
                    self.callbacks.step(trial, StepEvent(
                        state=states[i], action=raw_actions[i], reward=reward,
                        next_state=next_obs, done=done,
                        frames=info.get("frames", 1)))
                if done:
                    finished.append(i)
            strat.flush_updates(actions)

            for i in finished:
                trial = trials[i]
                strat.end_episode(i)
                _, stop, reset_occurred = self._finish_episode(
                    trial, prepare_record=strat.prepare_record)
                if reset_occurred:
                    strat.after_weight_reset(i)
                if stop:
                    trial.active = False
                    continue
                trial.episode += 1
                trial.steps = 0
                trial.shaped_return = 0.0
                trial.agent.begin_episode(trial.episode)
                self.callbacks.episode_start(trial)
            if finished:
                active_indices = [i for i in active_indices if trials[i].active]
            states = step.observations
            strat.end_step()

        wall_time = time.perf_counter() - start_wall
        strat.finalize()
        results = [self._result(trial, getattr(getattr(trial.agent, "config", None),
                                               "n_hidden", 0), wall_time)
                   for trial in trials]
        self.callbacks.train_end(run, results)
        return results


def _build_vector_env(configs: Sequence[TrainingConfig], *,
                      action_repeat: int = 1) -> Any:
    """One sub-env per trial config, frame-skip-aware."""
    from repro.parallel.vector_env import EnvFactory, SyncVectorEnv

    env_fns = []
    for config in configs:
        kwargs = dict(config.env_params)
        if config.max_steps_per_episode is not None:
            kwargs["max_episode_steps"] = config.max_steps_per_episode
        env_fns.append(EnvFactory(config.env_id, seed=config.seed,
                                  kwargs=tuple(sorted(kwargs.items()))))
    if action_repeat > 1:
        from repro.parallel.subproc import SubprocVectorEnv

        return SubprocVectorEnv(env_fns, steps_per_message=action_repeat)
    # The trainer emits guaranteed-valid int64 actions every step, so the
    # per-step validation of the batched path is pure overhead here.
    return SyncVectorEnv(env_fns, validate=False)


__all__ = ["CHECKPOINT_STATE_VERSION", "Trainer", "TrainingRun", "TrialState",
           "resolve_env"]
