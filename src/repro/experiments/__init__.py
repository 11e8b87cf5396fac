"""Result containers and rendering for the paper's tables and figures.

The experiments themselves are the registered specs of :mod:`repro.api`
(``figure4``, ``figure5``/``table2``, ``table3``); run them with
``repro.api.run(get_spec(name, scale=...))`` or ``python -m repro run``.
This package never trains anything: it collects finished trials into plain
data structures (lists of dict rows, NumPy arrays) and renders them as
aligned text tables directly comparable to the paper:

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
from repro.experiments.training_curve import TrainingCurveResult
from repro.experiments.execution_time import (
    ExecutionTimeResult,
    PAPER_EXECUTION_TIMES,
    PAPER_SPEEDUPS,
)

__all__ = [
    "format_table",
    "rows_to_csv",
    "compare_with_paper",
    "resource_table",
    "TrainingCurveResult",
    "ExecutionTimeResult",
    "PAPER_EXECUTION_TIMES",
    "PAPER_SPEEDUPS",
]
