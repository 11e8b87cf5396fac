"""The Trainer's callback lifecycle and its built-in callbacks.

A :class:`Callback` observes (and lightly steers) the canonical training
loop through six typed hooks::

    on_train_start(run)                  once, before any episode
    on_episode_start(trial)              per trial, before each episode
    on_step(trial, event)                per decision point
    on_episode_end(trial, record)        per finished episode
    on_checkpoint(trial)                 after a mid-trial state save
    on_train_end(run, results)           once, with the final results

The same hooks fire identically whether the Trainer is running one serial
trial, a lock-step batch of ELM-family agents, or a lock-step batch of
DQN/FPGA agents — callbacks are how progress streaming, metric recording
and checkpointing stay loop-agnostic.

Built-ins
---------
:class:`MetricsRecorder`
    Assembles the per-trial :class:`~repro.training.records.TrainingCurve`.
    The Trainer installs one automatically when absent.
:class:`ProgressCallback`
    Streams episode progress (episode index, steps, moving average) through
    the structured logger every N episodes — the ``repro run --paper``
    progress feed.
:class:`CheckpointCallback`
    Periodically persists the full mid-trial training state (agent, env,
    RNGs, curve) into an :class:`~repro.api.store.ArtifactStore`, making an
    interrupted run resumable *mid-trial* — the resumed trajectory is
    bit-for-bit the uninterrupted one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.training.records import EpisodeRecord, TrainingCurve, TrainingResult
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.training.trainer import TrainingRun, TrialState

_LOGGER = get_logger("repro.training.callbacks")


@dataclass(frozen=True)
class StepEvent:
    """One decision point of one trial, as seen by ``on_step``."""

    state: np.ndarray             #: observation the agent acted on
    action: int                   #: the chosen action
    reward: float                 #: (shaped) reward the agent observed
    next_state: np.ndarray        #: successor observation (terminal one at episode end)
    done: bool                    #: episode ended on this transition
    frames: int = 1               #: env steps this decision covered (action repeat)


class Callback:
    """Base class: override any subset of the lifecycle hooks."""

    def on_train_start(self, run: "TrainingRun") -> None:
        """Called once before the first episode of any trial."""

    def on_episode_start(self, trial: "TrialState") -> None:
        """Called before ``trial`` starts an episode (``trial.episode`` is set)."""

    def on_step(self, trial: "TrialState", event: StepEvent) -> None:
        """Called after each decision point of ``trial``."""

    def on_episode_end(self, trial: "TrialState", record: EpisodeRecord) -> None:
        """Called after each finished episode with its curve record."""

    def on_checkpoint(self, trial: "TrialState") -> None:
        """Called after a mid-trial checkpoint of ``trial`` was persisted."""

    def on_train_end(self, run: "TrainingRun",
                     results: List[TrainingResult]) -> None:
        """Called once after every trial finished, with the final results."""


class CallbackList:
    """Dispatch helper: fans one hook invocation out to many callbacks.

    ``wants_steps`` is precomputed so the hot per-step path costs nothing
    when no installed callback overrides :meth:`Callback.on_step` — the
    default configuration keeps the trainer's inner loop callback-free.
    """

    def __init__(self, callbacks: Sequence[Callback] = ()) -> None:
        self.callbacks: List[Callback] = list(callbacks)
        for callback in self.callbacks:
            if not isinstance(callback, Callback):
                raise TypeError(
                    f"callbacks must subclass Callback, got {type(callback).__name__}")
        self.wants_steps = any(type(cb).on_step is not Callback.on_step
                               for cb in self.callbacks)

    def __iter__(self):
        return iter(self.callbacks)

    def __len__(self) -> int:
        return len(self.callbacks)

    def first_of(self, cls: type) -> Optional[Callback]:
        for callback in self.callbacks:
            if isinstance(callback, cls):
                return callback
        return None

    # ------------------------------------------------------------------ hooks
    def train_start(self, run: "TrainingRun") -> None:
        for callback in self.callbacks:
            callback.on_train_start(run)

    def episode_start(self, trial: "TrialState") -> None:
        for callback in self.callbacks:
            callback.on_episode_start(trial)

    def step(self, trial: "TrialState", event: StepEvent) -> None:
        for callback in self.callbacks:
            callback.on_step(trial, event)

    def episode_end(self, trial: "TrialState", record: EpisodeRecord) -> None:
        for callback in self.callbacks:
            callback.on_episode_end(trial, record)

    def checkpoint(self, trial: "TrialState") -> None:
        for callback in self.callbacks:
            callback.on_checkpoint(trial)

    def train_end(self, run: "TrainingRun", results: List[TrainingResult]) -> None:
        for callback in self.callbacks:
            callback.on_train_end(run, results)


class MetricsRecorder(Callback):
    """Collects each trial's :class:`TrainingCurve` (one per trial index)."""

    def __init__(self) -> None:
        self.curves: dict = {}

    def on_train_start(self, run: "TrainingRun") -> None:
        for trial in run.trials:
            # setdefault: a resumed serial trial pre-seeds its restored curve.
            self.curves.setdefault(trial.index, TrainingCurve())

    def on_episode_end(self, trial: "TrialState", record: EpisodeRecord) -> None:
        self.curves[trial.index].append(record)

    def curve(self, index: int) -> TrainingCurve:
        return self.curves[index]


class ProgressCallback(Callback):
    """Stream per-trial training progress every ``every`` episodes.

    Messages go through the structured logger by default; pass
    ``stream=sys.stderr`` (or any writable) for plain-text streaming — the
    form ``repro run --progress-every N`` uses so progress survives
    ``--quiet`` table suppression.
    """

    def __init__(self, every: int = 100, *, stream: Optional[Any] = None) -> None:
        if every <= 0:
            raise ValueError("every must be positive")
        self.every = every
        self.stream = stream

    def _emit(self, trial: "TrialState", record: EpisodeRecord,
              suffix: str = "") -> None:
        if self.stream is not None:
            name = getattr(trial.agent, "name", "agent")
            self.stream.write(
                f"[{name} trial {trial.index}] episode {record.episode}: "
                f"{record.steps} steps, avg {record.moving_average:.1f}{suffix}\n")
            self.stream.flush()
        else:
            _LOGGER.info("training progress", trial=trial.index,
                         design=getattr(trial.agent, "name", "agent"),
                         episode=record.episode, steps=record.steps,
                         moving_average=round(record.moving_average, 1))

    def on_episode_end(self, trial: "TrialState", record: EpisodeRecord) -> None:
        if record.episode % self.every == 0:
            self._emit(trial, record)

    def on_train_end(self, run: "TrainingRun",
                     results: List[TrainingResult]) -> None:
        if self.stream is None:
            return
        for result in results:
            status = (f"solved in {result.episodes_to_solve}" if result.solved
                      else f"unsolved after {result.episodes}")
            self.stream.write(f"[{result.design}] done: {status} episodes\n")
        self.stream.flush()


def progress_to_stderr(every: int = 100) -> ProgressCallback:
    """A ProgressCallback writing plain lines to stderr (the CLI's choice)."""
    return ProgressCallback(every, stream=sys.stderr)


class CheckpointCallback(Callback):
    """Periodic mid-trial state checkpointing into an artifact store.

    Serial-driver integration: every ``every`` finished episodes the Trainer
    captures its full state (agent, environment, criterion, curve — all RNG
    streams included) and hands the pickled blob to :meth:`save`; at fit
    start it calls :meth:`load` and, when a blob exists, resumes from it
    instead of starting fresh.  Because the capture happens at an episode
    boundary and includes every RNG, the resumed run replays the
    uninterrupted run bit-for-bit.

    ``store`` is duck-typed (``save_trial_state`` / ``load_trial_state`` /
    ``clear_trial_state``) so this module stays import-cycle-free; pass an
    :class:`~repro.api.store.ArtifactStore` and the
    :class:`~repro.parallel.sweep.SweepTask` identifying the trial.
    """

    def __init__(self, store: Any, task: Any, *, every: int = 100) -> None:
        if every <= 0:
            raise ValueError("every must be positive")
        self.store = store
        self.task = task
        self.every = every
        self._episodes_since = 0
        self.saves = 0

    # ---- trainer integration --------------------------------------------
    def due_after_episode(self) -> bool:
        """Advance the episode counter; True when a checkpoint is due."""
        self._episodes_since += 1
        if self._episodes_since >= self.every:
            self._episodes_since = 0
            return True
        return False

    def load(self) -> Optional[bytes]:
        return self.store.load_trial_state(self.task)

    def save(self, blob: bytes) -> None:
        self.store.save_trial_state(self.task, blob)
        self.saves += 1

    def clear(self) -> None:
        self.store.clear_trial_state(self.task)


__all__ = [
    "Callback", "CallbackList", "CheckpointCallback", "MetricsRecorder",
    "ProgressCallback", "StepEvent", "progress_to_stderr",
]
