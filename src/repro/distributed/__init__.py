"""repro.distributed: multi-host sweep execution (broker + worker fleet).

The distributed backend turns one sweep grid into a TCP work queue:

* :class:`SweepBroker` — serves :class:`~repro.parallel.sweep.SweepTask`s
  with lease/heartbeat fault tolerance, exactly-once result collection and
  per-trial :class:`~repro.api.store.ArtifactStore` checkpointing;
* :func:`run_worker` — the ``python -m repro worker --connect HOST:PORT``
  loop pulling tasks through the serial trainer code path;
* :func:`run_distributed_sweep` — the coordinator behind
  ``SweepRunner(backend="distributed")`` / ``repro run --backend
  distributed --workers N``, auto-spawning a local fleet when no external
  address is involved.

Every trial is executed by exactly one ``Trainer().fit`` call somewhere in
the fleet, so distributed results replay serial results bit-for-bit on
fixed seeds — the backend-equivalence CI job enforces this.
"""

from repro.distributed.broker import SweepBroker
from repro.distributed.coordinator import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    run_distributed_sweep,
    spawn_local_workers,
)
from repro.distributed.journal import (
    JournalError,
    JournalReplay,
    SweepJournal,
    count_deliveries,
    task_journal_key,
)
from repro.distributed.preflight import PreflightError, run_preflight
from repro.distributed.protocol import parse_address, transport_counters
from repro.distributed.worker import (
    DISTRIBUTED_BACKEND,
    WorkerOptions,
    default_worker_id,
    execute_task,
    run_worker,
)

__all__ = [
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "DISTRIBUTED_BACKEND",
    "JournalError",
    "JournalReplay",
    "PreflightError",
    "SweepBroker",
    "SweepJournal",
    "WorkerOptions",
    "count_deliveries",
    "default_worker_id",
    "execute_task",
    "parse_address",
    "run_distributed_sweep",
    "run_preflight",
    "run_worker",
    "spawn_local_workers",
    "task_journal_key",
    "transport_counters",
]
