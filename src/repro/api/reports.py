"""Report adapters: engine output -> the paper's summary tables and CSVs.

The engine hands back raw per-trial :class:`~repro.training.records.TrainingResult`
objects; everything presentational lives here.  For the paper deliverables
the adapters collect trials into the result containers
(:class:`~repro.experiments.training_curve.TrainingCurveResult`,
:class:`~repro.experiments.execution_time.ExecutionTimeResult`), which
render the Figure 4/5 summary tables.

Execution-time projection happens here, not in the engine: cached trial
artifacts store platform-independent operation *counts*, and the PYNQ-Z1
latency model projects them at render time.  Re-reporting a finished run
under a different platform model is therefore free.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.experiments.reporting import format_table, rows_to_csv

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.engine import RunReport
    from repro.experiments.execution_time import ExecutionTimeResult
    from repro.experiments.training_curve import TrainingCurveResult
    from repro.fpga.platform import PynqZ1Platform


def _is_simple(report: "RunReport") -> bool:
    """One trial per (design, hidden size): the result containers' key space."""
    spec = report.spec
    return spec.n_seeds == 1 and len(spec.env_ids) == 1


def training_curve_result(report: "RunReport") -> "TrainingCurveResult":
    """Collect a training-curve run into the Figure 4 container."""
    from repro.experiments.training_curve import TrainingCurveResult

    if not _is_simple(report):
        raise ValueError(
            "TrainingCurveResult keys by (design, n_hidden); this run has "
            f"n_seeds={report.spec.n_seeds} and env_ids={report.spec.env_ids} — "
            "use RunReport.summary_rows() for the multi-seed/multi-env view")
    collected = TrainingCurveResult()
    for record in report.trials:
        collected.add(record.result)
    return collected


def execution_time_result(report: "RunReport", *,
                          platform: Optional["PynqZ1Platform"] = None
                          ) -> "ExecutionTimeResult":
    """Project a run's operation counts into the Figure 5 container."""
    from repro.experiments.execution_time import ExecutionTimeResult, project_timing
    from repro.fpga.platform import PynqZ1Platform

    if not _is_simple(report):
        raise ValueError(
            "ExecutionTimeResult keys by (design, n_hidden); use "
            "RunReport.summary_rows() for the multi-seed/multi-env view")
    if platform is None:
        platform = PynqZ1Platform()
    collected = ExecutionTimeResult()
    for record in report.trials:
        collected.add(project_timing(record.result, platform))
    return collected


def summary_rows(report: "RunReport", *,
                 platform: Optional["PynqZ1Platform"] = None
                 ) -> List[Dict[str, object]]:
    """The run's summary table as dict rows (CSV-able).

    For single-seed single-env runs of the paper kinds these are the result
    containers' rows; multi-seed/multi-env runs get the same columns plus
    ``env_id`` and ``trial``.
    """
    spec = report.spec
    if spec.kind == "resource_table":
        return _resource_rows(report)
    if spec.kind == "execution_time":
        if _is_simple(report):
            return execution_time_result(report, platform=platform).summary_rows()
        return _extended_execution_rows(report, platform=platform)
    if _is_simple(report):
        return training_curve_result(report).summary_rows()
    return _extended_training_rows(report)


def render(report: "RunReport", *,
           platform: Optional["PynqZ1Platform"] = None) -> str:
    """Aligned text table of the run summary (Figure 4/5 titles for paper kinds)."""
    spec = report.spec
    if spec.kind == "resource_table":
        from repro.experiments.resource_table import render_table3

        return render_table3(report.resource_report)
    if _is_simple(report):
        if spec.kind == "execution_time":
            return execution_time_result(report, platform=platform).render()
        return training_curve_result(report).render()
    return format_table(summary_rows(report, platform=platform),
                        title=f"{spec.name} summary ({len(report.trials)} trials, "
                              f"backend={report.backend})")


def summary_csv(report: "RunReport", *,
                platform: Optional["PynqZ1Platform"] = None) -> str:
    """The summary rows as CSV text (what the CI equivalence check diffs)."""
    return rows_to_csv(summary_rows(report, platform=platform))


# ---------------------------------------------------------------------- helpers

def _resource_rows(report: "RunReport") -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for row in report.resource_report.rows:
        cells: Dict[str, object] = {"Units": row.n_hidden, "fits": row.fits}
        for resource in ("BRAM", "DSP", "FF", "LUT"):
            value = row.utilization_percent.get(resource) if row.fits else None
            cells[f"{resource} [%]"] = None if value is None else round(value, 2)
        rows.append(cells)
    return rows


def _extended_training_rows(report: "RunReport") -> List[Dict[str, object]]:
    rows = []
    ordered = sorted(report.trials,
                     key=lambda r: (r.task.n_hidden, r.task.design,
                                    r.task.env_id, r.task.trial))
    for record in ordered:
        result = record.result
        rows.append({
            "design": result.design,
            "env_id": record.task.env_id,
            "trial": record.task.trial,
            "n_hidden": result.n_hidden,
            "solved": result.solved,
            "episodes": result.episodes,
            "episodes_to_solve": result.episodes_to_solve,
            "final_avg_steps": round(result.curve.final_average(), 1),
            "weight_resets": result.weight_resets,
        })
    return rows


def _extended_execution_rows(report: "RunReport", *,
                             platform: Optional["PynqZ1Platform"] = None
                             ) -> List[Dict[str, object]]:
    from repro.experiments.execution_time import project_timing
    from repro.fpga.platform import PynqZ1Platform

    if platform is None:
        platform = PynqZ1Platform()
    rows = []
    ordered = sorted(report.trials,
                     key=lambda r: (r.task.n_hidden, r.task.design,
                                    r.task.env_id, r.task.trial))
    for record in ordered:
        timing = project_timing(record.result, platform)
        rows.append({
            "design": timing.design,
            "env_id": record.task.env_id,
            "trial": record.task.trial,
            "n_hidden": timing.n_hidden,
            "solved": timing.solved,
            "episodes": timing.episodes,
            "modelled_seconds": round(timing.modelled_total, 3),
        })
    return rows


__all__ = ["execution_time_result", "render", "summary_csv", "summary_rows",
           "training_curve_result"]
