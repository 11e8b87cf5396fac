"""Multi-seed sweep orchestration: fan a (design x env x seed) grid out.

``SweepRunner`` is the entry point the experiments build on.  It expands a
:class:`SweepSpec` into one :class:`SweepTask` per (design, env_id, trial)
cell, derives every task's seed from the sweep's root seed with
:func:`~repro.utils.seeding.spawn_seeds` (reproducible, pairwise
non-overlapping), executes the grid on one of three interchangeable
backends, and aggregates the streamed
:class:`~repro.training.records.TrainingResult`s into a :class:`SweepResult`.

Backends
--------
``"vectorized"``
    Lock-step through :meth:`repro.training.Trainer.fit_lockstep`.
    Compatible trials (same lock-step-capable design, env and hidden size)
    train through the batched strategy — stacked agent math plus the
    vectorized environment, the winner whenever trials outnumber cores.
    Every other design (DQN, FPGA, the unregularized OS-ELM variants — see
    :func:`~repro.training.strategies.supports_lockstep`) trains lock-step
    too, through the generic per-agent strategy (vectorized env stepping,
    per-agent math), so the whole grid advances in lock-step batches.
``"process"``
    One serial :meth:`~repro.training.Trainer.fit` call per worker process
    via :func:`~repro.parallel.pool.parallel_map`.  Scales with physical
    cores and handles every design; per-task results are bit-identical to
    serial.
``"serial"``
    The plain loop, for debugging and baselines.  The only backend that
    supports *mid-trial* checkpoint/resume (``checkpoint_every`` with a
    ``store``).
``"distributed"``
    A TCP worker fleet behind :func:`repro.distributed.run_distributed_sweep`:
    tasks are served from a broker in this process to local auto-spawned
    workers (and/or external ``repro worker --connect`` processes), with
    heartbeat/lease requeue on worker death and optional per-trial
    artifact-store checkpointing.  Per-task results are bit-identical to
    serial.
``"auto"``
    ``vectorized`` (its fallback already covers non-batchable designs).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.designs import design_spec, make_design
from repro.experiments.reporting import format_table
from repro.parallel.pool import parallel_map
from repro.training.config import TrainingConfig
from repro.training.records import TrainingResult
from repro.utils.logging import get_logger
from repro.utils.seeding import spawn_seeds

_LOGGER = get_logger("repro.parallel.sweep")


def _design_supports_lockstep(design: str) -> bool:
    """Mirror of :func:`repro.training.strategies.supports_lockstep` on specs.

    Decides *batched* vs *generic* lock-step grouping: ELM always; OS-ELM
    only with the ridge term (the un-ridged recursive P update amplifies
    batched-vs-serial BLAS rounding chaotically); never DQN/FPGA.  Designs
    outside the batched set still run lock-step — through the generic
    per-agent strategy.
    """
    spec = design_spec(design)
    if spec.family == "elm":
        return True
    return spec.family == "os-elm" and spec.regularization.l2_delta > 0


@dataclass(frozen=True)
class SweepTask:
    """One cell of the sweep grid: a fully specified, picklable trial.

    ``n_states`` / ``n_actions`` default to ``None`` and are derived from the
    env registry's capability metadata
    (:func:`repro.envs.registry.env_dimensions`) at construction.  Passing
    them explicitly still works — unregistered test doubles need it — but an
    explicit value that *contradicts* the registry raises ``ValueError``
    (register the env with the right metadata instead).
    """

    design: str
    env_id: str
    n_hidden: int
    gamma: float
    seed: int
    trial: int                        #: trial index within (design, env_id)
    training: TrainingConfig          #: per-trial protocol (seed already embedded)
    n_states: Optional[int] = None    #: env observation dims (registry-derived)
    n_actions: Optional[int] = None   #: env action count (registry-derived)

    def __post_init__(self) -> None:
        from repro.envs.registry import env_dimensions, registry as env_registry

        if self.n_states is None or self.n_actions is None:
            n_states, n_actions = env_dimensions(self.env_id)
            if self.n_states is None:
                object.__setattr__(self, "n_states", n_states)
            if self.n_actions is None:
                object.__setattr__(self, "n_actions", n_actions)
        elif self.env_id in env_registry:
            n_states, n_actions = env_dimensions(self.env_id)
            if (self.n_states, self.n_actions) != (n_states, n_actions):
                raise ValueError(
                    f"SweepTask(env_id={self.env_id!r}) contradicts the registry "
                    f"dimensions ({n_states}, {n_actions}) with "
                    f"({self.n_states}, {self.n_actions}); register the "
                    "environment with the intended metadata instead")

    def make_agent(self):
        """Instantiate the trial's agent (called inside the executing worker)."""
        return make_design(self.design, n_states=self.n_states,
                           n_actions=self.n_actions, n_hidden=self.n_hidden,
                           gamma=self.gamma, seed=self.seed)

    def key(self) -> Tuple[str, str, int, int]:
        """The grid coordinate identifying this task within one sweep."""
        return (self.design, self.env_id, self.n_hidden, self.trial)


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a sweep grid.

    Every (design, env_id, trial) combination becomes one task; task seeds
    are ``spawn_seeds(root_seed, n_tasks)`` in grid order, so the whole
    sweep is reproducible from ``root_seed`` alone and no two trials share
    a bit-generator stream.
    """

    designs: Sequence[str] = ("OS-ELM-L2-Lipschitz",)
    env_ids: Sequence[str] = ("CartPole-v0",)
    n_seeds: int = 4
    n_hidden: int = 64
    gamma: float = 0.99
    training: TrainingConfig = field(default_factory=lambda: TrainingConfig(max_episodes=300))
    root_seed: int = 1234

    def __post_init__(self) -> None:
        if not self.designs:
            raise ValueError("designs must not be empty")
        if not self.env_ids:
            raise ValueError("env_ids must not be empty")
        if self.n_seeds <= 0:
            raise ValueError("n_seeds must be positive")
        for design in self.designs:
            design_spec(design)  # raises on unknown names up-front

    def tasks(self) -> List[SweepTask]:
        """Expand the grid into seeded tasks (design-major, then env, then trial)."""
        grid = [(design, env_id, trial)
                for design in self.designs
                for env_id in self.env_ids
                for trial in range(self.n_seeds)]
        seeds = spawn_seeds(self.root_seed, len(grid))
        tasks = []
        for (design, env_id, trial), seed in zip(grid, seeds):
            training = replace(self.training, env_id=env_id, seed=seed)
            tasks.append(SweepTask(design=design, env_id=env_id,
                                   n_hidden=self.n_hidden, gamma=self.gamma,
                                   seed=seed, trial=trial, training=training))
        return tasks


def _train_sweep_task(task: SweepTask, callbacks: Sequence = ()):
    """Train one task serially; returns ``(result, trained_agent)``.

    The agent comes back alongside the result so callers that persist
    deployable policies (``save_policies``) get the final weights without a
    second training pass.
    """
    from repro.training.trainer import Trainer

    agent = task.make_agent()
    result = Trainer(callbacks=callbacks).fit(agent, config=task.training,
                                              n_hidden=task.n_hidden)
    return result, agent


def _run_sweep_task(task: SweepTask, callbacks: Sequence = ()) -> TrainingResult:
    """Module-level worker so the process backend can pickle it.

    One serial :meth:`~repro.training.Trainer.fit` per task; ``callbacks``
    (serial backend only — the process backend pickles the bare task) carry
    progress streaming and mid-trial checkpointing.
    """
    result, _ = _train_sweep_task(task, callbacks)
    return result


def _run_sweep_task_saving_policy(task: SweepTask, store_root: str) -> TrainingResult:
    """Process-backend worker that also persists the trained agent.

    Module-level (wrapped in ``functools.partial(store_root=...)``) so the
    pool can pickle it; each child opens its own store handle on the shared
    root — :meth:`ArtifactStore.save_policy` writes are atomic.
    """
    from repro.api.store import ArtifactStore

    result, agent = _train_sweep_task(task)
    ArtifactStore(store_root).save_policy(task, agent)
    return result


@dataclass
class SweepResult:
    """All trials of one sweep, with cross-seed aggregation helpers."""

    entries: List[Tuple[SweepTask, TrainingResult]] = field(default_factory=list)
    backend: str = "serial"
    wall_time_seconds: float = 0.0
    #: Execution path actually taken per entry, aligned with ``entries``:
    #: ``"lockstep"`` (vectorized backend — batched or generic strategy),
    #: ``"process"``, ``"serial"`` or ``"distributed"``.  Makes the sweep
    #: auditable per trial rather than per aggregate.
    backends_used: List[str] = field(default_factory=list)
    #: Autoscaled distributed sweeps only: the
    #: :class:`~repro.fleet.FleetReport` of scale/drain events (``None``
    #: everywhere else).  Informational — results never depend on it.
    fleet_report: Optional[object] = None

    def add(self, task: SweepTask, result: TrainingResult,
            backend_used: Optional[str] = None) -> None:
        self.entries.append((task, result))
        self.backends_used.append(backend_used if backend_used is not None
                                  else self.backend)

    def __len__(self) -> int:
        return len(self.entries)

    def backend_for(self, task: SweepTask) -> str:
        """The execution path one task actually took."""
        for (entry_task, _), backend_used in zip(self.entries, self.backends_used):
            if entry_task.key() == task.key():
                return backend_used
        raise KeyError(f"no entry for task {task.key()!r}")

    def backend_counts(self) -> Dict[str, int]:
        """How many trials each execution path handled, e.g. ``{"lockstep": 3}``."""
        return dict(Counter(self.backends_used))

    # ------------------------------------------------------------------ selection
    def results_for(self, design: Optional[str] = None,
                    env_id: Optional[str] = None) -> List[TrainingResult]:
        """Trials matching a design and/or env, in trial order."""
        matching = [(task, result) for task, result in self.entries
                    if (design is None or task.design == design)
                    and (env_id is None or task.env_id == env_id)]
        matching.sort(key=lambda entry: (entry[0].design, entry[0].env_id,
                                         entry[0].trial))
        return [result for _, result in matching]

    def groups(self) -> List[Tuple[str, str]]:
        """The distinct (design, env_id) cells present, sorted."""
        return sorted({(task.design, task.env_id) for task, _ in self.entries})

    # ------------------------------------------------------------------ aggregation
    @property
    def total_env_steps(self) -> int:
        """Aggregate environment steps executed across every trial."""
        return int(sum(record.steps for _, result in self.entries
                       for record in result.curve.records))

    def solved_fraction(self, design: str, env_id: str) -> float:
        results = self.results_for(design, env_id)
        if not results:
            raise KeyError(f"no trials for ({design!r}, {env_id!r})")
        return float(np.mean([result.solved for result in results]))

    def aggregate_curve(self, design: str, env_id: str) -> Dict[str, np.ndarray]:
        """Mean/std per-episode steps across seeds (the Figure 4 averaging).

        Trials that stopped early (solved) are padded by holding their final
        episode length, so the mean stays defined over the longest trial's
        horizon.
        """
        results = self.results_for(design, env_id)
        if not results:
            raise KeyError(f"no trials for ({design!r}, {env_id!r})")
        horizon = max(len(result.curve) for result in results)
        padded = np.empty((len(results), horizon))
        for row, result in enumerate(results):
            steps = result.curve.steps
            padded[row, :steps.size] = steps
            padded[row, steps.size:] = steps[-1] if steps.size else 0.0
        return {
            "episodes": np.arange(1, horizon + 1),
            "mean_steps": padded.mean(axis=0),
            "std_steps": padded.std(axis=0),
        }

    def summary_rows(self) -> List[Dict[str, object]]:
        rows = []
        group_backends: Dict[Tuple[str, str], set] = defaultdict(set)
        for (task, _), backend_used in zip(self.entries, self.backends_used):
            group_backends[(task.design, task.env_id)].add(backend_used)
        for design, env_id in self.groups():
            results = self.results_for(design, env_id)
            solve_counts = [result.episodes_to_solve for result in results
                            if result.episodes_to_solve is not None]
            rows.append({
                "design": design,
                "env_id": env_id,
                "trials": len(results),
                "backend_used": "+".join(sorted(group_backends[(design, env_id)])),
                "solved": f"{sum(result.solved for result in results)}/{len(results)}",
                "mean_episodes_to_solve": (round(float(np.mean(solve_counts)), 1)
                                           if solve_counts else None),
                "mean_final_avg_steps": round(float(np.mean(
                    [result.curve.final_average() for result in results])), 1),
            })
        return rows

    def render(self) -> str:
        return format_table(self.summary_rows(),
                            title=f"Sweep summary ({len(self.entries)} trials, "
                                  f"backend={self.backend})")


class SweepRunner:
    """Execute a sweep grid on a chosen backend.

    Parameters
    ----------
    spec:
        The sweep grid: either a :class:`SweepSpec` (expanded via
        :meth:`SweepSpec.tasks`) or an explicit sequence of
        :class:`SweepTask` — the form the unified experiment API
        (:mod:`repro.api`) uses so every front door routes trials through
        this one engine.
    backend:
        ``"auto"`` (default), ``"vectorized"``, ``"process"``, ``"serial"``
        or ``"distributed"``.
    max_workers:
        Pool size for the process backend, or the number of auto-spawned
        local workers for the distributed backend; lock-step group size is
        the number of compatible trials, independent of this.
    store:
        An :class:`~repro.api.store.ArtifactStore`.  Distributed backend:
        the broker checkpoints every finished trial into it as it arrives.
        Serial backend: enables *mid-trial* state checkpointing when
        ``checkpoint_every`` is set.
    bind:
        Distributed backend only: ``"HOST:PORT"`` to accept external
        ``repro worker --connect`` processes instead of (or in addition to)
        the auto-spawned local fleet.
    checkpoint_every:
        Serial backend with a ``store``: persist the full mid-trial training
        state every N episodes, so a killed run resumes *inside* a trial
        (bit-for-bit) instead of retraining it.  0 disables (default).
    resume_trial_state:
        Serial backend: load an existing mid-trial state snapshot before
        training (default).  ``False`` (the ``--no-resume`` contract)
        discards any stale snapshot so the trial genuinely retrains;
        checkpoints are still *written* when ``checkpoint_every`` is set.
    lease_batch:
        Distributed backend: tasks leased per worker ``GET`` (connection-
        latency amortization on paper-scale grids).  Default 1 preserves
        the classic one-task-per-request protocol.
    progress_every:
        Serial/vectorized backends: stream per-trial progress to stderr
        every N episodes through a
        :class:`~repro.training.callbacks.ProgressCallback`.  0 disables.
    save_policies:
        Persist every trial's final trained agent into the ``store``
        (:meth:`~repro.api.store.ArtifactStore.save_policy`) so
        ``repro serve`` can load it later.  Requires a ``store``; supported
        on the serial, vectorized and process backends (distributed workers
        train in other processes/hosts — their agents never return to this
        coordinator, so the combination is rejected up front).
    autoscale:
        Distributed backend only: ``True`` or a
        :class:`~repro.fleet.AutoscaleConfig` to run the worker fleet
        under a :class:`~repro.fleet.FleetAutoscaler` instead of a fixed
        ``max_workers`` — the fleet grows on queue backlog and drains idle
        workers gracefully, with byte-identical results either way.  The
        run's :class:`~repro.fleet.FleetReport` lands on
        :attr:`SweepResult.fleet_report`.
    journal:
        Distributed backend only: path to the broker's crash-safety
        write-ahead journal (``repro run --journal``).  An existing file
        is replayed first, so re-running after a broker kill resumes with
        completed trials done and in-flight leases requeued; see
        :class:`~repro.distributed.journal.SweepJournal`.
    """

    BACKENDS = ("auto", "vectorized", "process", "serial", "distributed")

    def __init__(self, spec: Union[SweepSpec, Sequence[SweepTask]], *,
                 backend: str = "auto", max_workers: Optional[int] = None,
                 store: Optional[object] = None,
                 bind: Optional[str] = None,
                 checkpoint_every: int = 0,
                 resume_trial_state: bool = True,
                 lease_batch: int = 1,
                 progress_every: int = 0,
                 save_policies: bool = False,
                 autoscale=None,
                 journal=None) -> None:
        if backend not in self.BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {self.BACKENDS}")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if lease_batch < 1:
            raise ValueError("lease_batch must be >= 1")
        if progress_every < 0:
            raise ValueError("progress_every must be >= 0")
        if save_policies and store is None:
            raise ValueError("save_policies requires a store to write into")
        if save_policies and backend == "distributed":
            raise ValueError(
                "save_policies is not supported on the distributed backend: "
                "worker-trained agents never reach this coordinator; train "
                "with --backend serial/vectorized/process instead")
        if autoscale and backend != "distributed":
            raise ValueError(
                "autoscale only applies to the distributed backend: the "
                "elastic fleet scales broker workers, which no other "
                "backend has")
        if journal and backend != "distributed":
            raise ValueError(
                "journal only applies to the distributed backend: it logs "
                "broker queue transitions, and no other backend has a "
                "broker (serial/vectorized runs resume from the store)")
        if not isinstance(spec, SweepSpec):
            tasks = list(spec)
            bad = [task for task in tasks if not isinstance(task, SweepTask)]
            if bad:
                raise TypeError(
                    f"explicit task lists must contain SweepTask instances, got "
                    f"{type(bad[0]).__name__}"
                )
            if not tasks:
                raise ValueError("explicit task list must not be empty")
            # Keep the materialized list, not the input iterable: a generator
            # argument is already exhausted by the validation above.
            spec = tasks
        self.spec = spec
        self.backend = "vectorized" if backend == "auto" else backend
        self.max_workers = max_workers
        self.store = store
        self.bind = bind
        self.checkpoint_every = checkpoint_every
        self.resume_trial_state = resume_trial_state
        self.lease_batch = lease_batch
        self.progress_every = progress_every
        self.save_policies = save_policies
        self.autoscale = autoscale
        self.journal = journal

    def tasks(self) -> List[SweepTask]:
        """The task list this runner will execute, in grid order."""
        if isinstance(self.spec, SweepSpec):
            return self.spec.tasks()
        return list(self.spec)

    def run(self, callback: Optional[Callable[[SweepTask, TrainingResult], None]] = None
            ) -> SweepResult:
        """Run every task; ``callback(task, result)`` streams completions."""
        tasks = self.tasks()
        sweep = SweepResult(backend=self.backend)
        start = time.perf_counter()
        _LOGGER.info("sweep started", backend=self.backend, tasks=len(tasks))
        if self.backend == "process":
            def stream(index: int, result: TrainingResult) -> None:
                if callback is not None:
                    callback(tasks[index], result)

            if self.save_policies:
                from functools import partial

                worker = partial(_run_sweep_task_saving_policy,
                                 store_root=str(self.store.root))
            else:
                worker = _run_sweep_task
            results = parallel_map(worker, tasks, backend="process",
                                   max_workers=self.max_workers, callback=stream)
            for task, result in zip(tasks, results):
                sweep.add(task, result, backend_used="process")
        elif self.backend == "serial":
            for task in tasks:
                result, agent = _train_sweep_task(
                    task, callbacks=self._serial_callbacks(task))
                if self.save_policies:
                    self.store.save_policy(task, agent)
                if callback is not None:
                    callback(task, result)
                sweep.add(task, result, backend_used="serial")
        elif self.backend == "distributed":
            from repro.distributed import run_distributed_sweep

            def keep_report(report) -> None:
                sweep.fleet_report = report

            pairs = run_distributed_sweep(tasks, n_workers=self.max_workers,
                                          bind=self.bind, store=self.store,
                                          callback=callback,
                                          lease_batch=self.lease_batch,
                                          autoscale=self.autoscale,
                                          on_fleet_report=keep_report,
                                          journal=self.journal)
            for task, (result, backend_used) in zip(tasks, pairs):
                sweep.add(task, result, backend_used=backend_used)
        else:
            self._run_vectorized(tasks, sweep, callback)
        sweep.wall_time_seconds = time.perf_counter() - start
        _LOGGER.info("sweep finished", backend=self.backend,
                     seconds=round(sweep.wall_time_seconds, 2))
        return sweep

    # ------------------------------------------------------------------ callbacks
    def _progress_callbacks(self) -> list:
        callbacks = []
        if self.progress_every:
            from repro.training.callbacks import progress_to_stderr

            callbacks.append(progress_to_stderr(self.progress_every))
        from repro import telemetry

        if telemetry.enabled():
            # Only installed while telemetry is on: TelemetryCallback defines
            # on_step, which switches the trainer to per-step dispatch.
            callbacks.append(telemetry.TelemetryCallback())
        return callbacks

    def _serial_callbacks(self, task: SweepTask) -> list:
        callbacks = self._progress_callbacks()
        if self.store is not None and self.checkpoint_every:
            from repro.training.callbacks import CheckpointCallback

            if not self.resume_trial_state:
                # --no-resume means retrain, full stop: a stale mid-trial
                # snapshot must not sneak the old run's state back in.
                self.store.clear_trial_state(task)
            callbacks.append(CheckpointCallback(self.store, task,
                                                every=self.checkpoint_every))
        return callbacks

    # ------------------------------------------------------------------ vectorized
    def _run_vectorized(self, tasks: Sequence[SweepTask], sweep: SweepResult,
                        callback: Optional[Callable[[SweepTask, TrainingResult], None]]
                        ) -> None:
        """Everything lock-steps: batched strategy groups + generic groups.

        Trials the batched strategy can replay faithfully group by
        (design, env, hidden size); every other design — DQN, FPGA, the
        unregularized OS-ELM variants — groups by environment and advances
        through the generic per-agent strategy, so the whole grid reports
        ``backend_used="lockstep"``.
        """
        from repro.training.trainer import Trainer

        batched: Dict[Tuple[str, str, int], List[SweepTask]] = defaultdict(list)
        generic: Dict[str, List[SweepTask]] = defaultdict(list)
        for task in tasks:
            if _design_supports_lockstep(task.design):
                batched[(task.design, task.env_id, task.n_hidden)].append(task)
            else:
                generic[task.env_id].append(task)
        plans = [(group_tasks, "batched") for group_tasks in batched.values()]
        plans += [(group_tasks, "generic") for group_tasks in generic.values()]
        for group_tasks, strategy in plans:
            agents = [task.make_agent() for task in group_tasks]
            configs = [task.training for task in group_tasks]
            trainer = Trainer(callbacks=self._progress_callbacks())
            results = trainer.fit_lockstep(agents, configs, strategy=strategy)
            for task, agent, result in zip(group_tasks, agents, results):
                if self.save_policies:
                    self.store.save_policy(task, agent)
                if callback is not None:
                    callback(task, result)
                sweep.add(task, result, backend_used="lockstep")
