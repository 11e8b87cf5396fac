"""repro.parallel: vectorized environments and multi-seed sweep orchestration.

The subsystem has three layers (see the README for the architecture sketch
and determinism guarantees):

* **Vector envs** — :class:`SyncVectorEnv` / :class:`SubprocVectorEnv` /
  :class:`AsyncVectorEnv` step N registry environments behind one stacked
  ``reset()``/``step()`` interface with auto-reset (``Async`` adds the
  ``step_async``/``step_wait`` split that overlaps env stepping with agent
  compute); :func:`make_vector` builds any of them from a registered id
  with ``spawn_seeds``-derived per-env seeds.
* **Lock-step training** — :meth:`repro.training.Trainer.fit_lockstep`
  advances N independent trials with batched agent math over a vector env
  (the single-core throughput path); :func:`supports_lockstep` says which
  agents the batched strategy replays.
* **Sweep orchestration** — :class:`SweepRunner` fans a
  (design x env x seed) :class:`SweepSpec` grid across the vectorized,
  process-pool, serial or distributed (:mod:`repro.distributed`) backend
  and aggregates the streamed results into a :class:`SweepResult`.
"""

from repro.parallel.async_env import AsyncVectorEnv, pipelined_rollout
from repro.parallel.pool import parallel_map
from repro.parallel.rollout import evaluate_agent_vectorized
from repro.parallel.subproc import SubprocVectorEnv
from repro.parallel.sweep import SweepResult, SweepRunner, SweepSpec, SweepTask
from repro.parallel.vector_env import (
    EnvFactory,
    SyncVectorEnv,
    VectorEnv,
    VectorStepResult,
    make_vector,
)
from repro.training.strategies import supports_lockstep

__all__ = [
    "AsyncVectorEnv",
    "EnvFactory",
    "SubprocVectorEnv",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "SweepTask",
    "SyncVectorEnv",
    "VectorEnv",
    "VectorStepResult",
    "evaluate_agent_vectorized",
    "make_vector",
    "parallel_map",
    "pipelined_rollout",
    "supports_lockstep",
]
