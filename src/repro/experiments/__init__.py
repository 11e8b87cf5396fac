"""Experiment harnesses that regenerate the paper's tables and figures.

The harness classes are views over the unified experiment API
(:mod:`repro.api`): their ``ci_scale``/``paper_scale`` constructors resolve
registered specs (``figure4``, ``figure5``) and ``to_spec()`` hands the
grid back to the one engine — run it with
``repro.api.run(experiment.to_spec())`` or ``python -m repro run``.

Each harness returns plain data structures (lists of dict rows, NumPy
arrays) and can render them as aligned text tables, so the benchmarks and
examples can print output directly comparable to the paper:

* :mod:`repro.experiments.resource_table` — Table 3 (FPGA resource
  utilization of the OS-ELM Q-Network core).
* :mod:`repro.experiments.training_curve` — Figure 4 (training curves of the
  six software designs for 32–192 hidden units).
* :mod:`repro.experiments.execution_time` — Figures 5 and 6 (execution time
  to complete CartPole-v0, with per-operation breakdowns), plus the speed-up
  factors quoted in the abstract.
* :mod:`repro.experiments.reporting` — text-table / CSV rendering helpers.
"""

from repro.experiments.reporting import format_table, rows_to_csv
from repro.experiments.resource_table import (
    compare_with_paper,
    resource_table,
)
from repro.experiments.training_curve import (
    TrainingCurveExperiment,
    TrainingCurveResult,
)
from repro.experiments.execution_time import (
    ExecutionTimeExperiment,
    ExecutionTimeResult,
    PAPER_EXECUTION_TIMES,
    PAPER_SPEEDUPS,
)

__all__ = [
    "format_table",
    "rows_to_csv",
    "compare_with_paper",
    "resource_table",
    "TrainingCurveExperiment",
    "TrainingCurveResult",
    "ExecutionTimeExperiment",
    "ExecutionTimeResult",
    "PAPER_EXECUTION_TIMES",
    "PAPER_SPEEDUPS",
]
