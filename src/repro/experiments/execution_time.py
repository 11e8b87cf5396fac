"""Experiments E3 / E4: execution time to complete CartPole-v0 (Figures 5 and 6).

The paper reports, for every design and hidden-layer size, the wall-clock
time to reach the solved criterion broken down by operation (seq_train,
predict_seq, init_train, predict_init, train_DQN, predict_1, predict_32).
The reproduction:

1. trains each design and records how many times each operation was invoked
   (``TrainingResult.breakdown.counts``);
2. projects those counts through the PYNQ-Z1 latency models
   (:class:`~repro.fpga.platform.PynqZ1Platform`) — Cortex-A9 latencies for
   the software designs and 125 MHz programmable-logic latencies for the
   FPGA design's predict_seq / seq_train;
3. reports modelled completion times, per-operation breakdowns and speed-up
   factors relative to DQN (the numbers quoted in the paper's abstract:
   29.76x for OS-ELM-L2-Lipschitz and 126.06x for FPGA at 64 hidden units).

The measured host wall-clock breakdown is also kept for reference, but the
modelled times are what is comparable across designs because the host CPU is
not a 650 MHz Cortex-A9.

The experiment itself is the registered ``figure5``/``table2`` spec: run
it with ``repro.api.run(get_spec("figure5", scale="ci"|"paper"))`` and
project the operation counts with
``report.to_execution_time_result(platform=...)``.  This module only holds
the result containers, the projection and the paper's reference numbers;
it never trains anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.experiments.reporting import format_table
from repro.fpga.platform import PynqZ1Platform
from repro.utils.timer import TimeBreakdown

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.training.records import TrainingResult

#: Hidden-layer sizes of Figure 5.
FIGURE5_HIDDEN_SIZES: Tuple[int, ...] = (32, 64, 128, 192)

#: Completion times (seconds) reported in Section 4.4 for the designs that
#: "acquire correct behaviors"; used for shape comparison in EXPERIMENTS.md.
PAPER_EXECUTION_TIMES: Dict[int, Dict[str, float]] = {
    32: {"OS-ELM-L2": 132.27, "OS-ELM-L2-Lipschitz": 55.02, "DQN": 3232.54, "FPGA": 6.88},
    64: {"ELM": 127.08, "OS-ELM-L2": 647.56, "OS-ELM-L2-Lipschitz": 74.20,
         "DQN": 2208.897, "FPGA": 17.52},
    128: {"OS-ELM-L2-Lipschitz": 241.81, "DQN": 1348.99, "FPGA": 81.79},
    192: {"OS-ELM-L2-Lipschitz": 722.64, "DQN": 1581.02, "FPGA": 155.00},
}

#: Speed-ups over DQN quoted in Section 4.4.
PAPER_SPEEDUPS: Dict[int, Dict[str, float]] = {
    32: {"OS-ELM-L2": 24.43, "OS-ELM-L2-Lipschitz": 58.75, "FPGA": 469.80},
    64: {"ELM": 17.38, "OS-ELM-L2": 3.41, "OS-ELM-L2-Lipschitz": 29.76, "FPGA": 126.06},
    128: {"OS-ELM-L2-Lipschitz": 5.58, "FPGA": 16.49},
    192: {"OS-ELM-L2-Lipschitz": 2.18, "FPGA": 10.19},
}


def project_timing(result: TrainingResult, platform: PynqZ1Platform) -> "DesignTiming":
    """Project a finished run's operation counts through a platform model.

    The single projection behind the unified API's report adapters: trial
    artifacts store platform-independent counts, and this turns them into
    modelled seconds.
    """
    modelled = platform.project_breakdown(
        result.design, result.breakdown.counts, n_hidden=result.n_hidden,
    )
    return DesignTiming(
        design=result.design,
        n_hidden=result.n_hidden,
        solved=result.solved,
        episodes=result.episodes,
        modelled=modelled,
        measured=result.breakdown,
        counts=dict(result.breakdown.counts),
    )


@dataclass
class DesignTiming:
    """Execution-time record of one (design, hidden size) run."""

    design: str
    n_hidden: int
    solved: bool
    episodes: int
    modelled: TimeBreakdown
    measured: TimeBreakdown
    counts: Dict[str, int]

    @property
    def modelled_total(self) -> float:
        return self.modelled.total()

    @property
    def measured_total(self) -> float:
        return self.measured.total()


@dataclass
class ExecutionTimeResult:
    """All timings of one experiment run, with speed-up helpers."""

    timings: Dict[Tuple[str, int], DesignTiming] = field(default_factory=dict)

    def add(self, timing: DesignTiming) -> None:
        self.timings[(timing.design, timing.n_hidden)] = timing

    def get(self, design: str, n_hidden: int) -> DesignTiming:
        return self.timings[(design, n_hidden)]

    def speedup_vs_dqn(self, design: str, n_hidden: int) -> Optional[float]:
        """Modelled time-to-complete ratio DQN / design.

        A speed-up "to complete" exists only when both runs completed, so
        this is None unless the design and DQN trials both solved (and
        when either is missing).
        """
        dqn = self.timings.get(("DQN", n_hidden))
        timing = self.timings.get((design, n_hidden))
        if (dqn is None or timing is None or not (dqn.solved and timing.solved)
                or timing.modelled_total <= 0):
            return None
        return dqn.modelled_total / timing.modelled_total

    def summary_rows(self) -> List[Dict[str, object]]:
        """One row per run; ``speedup_vs_DQN`` is empty unless both runs solved."""
        rows = []
        for (design, n_hidden), timing in sorted(self.timings.items(),
                                                 key=lambda kv: (kv[0][1], kv[0][0])):
            rows.append({
                "design": design,
                "n_hidden": n_hidden,
                "solved": timing.solved,
                "episodes": timing.episodes,
                "modelled_seconds": round(timing.modelled_total, 3),
                "speedup_vs_DQN": (round(s, 2) if (s := self.speedup_vs_dqn(design, n_hidden))
                                   else None),
            })
        return rows

    def breakdown_rows(self, design: str, n_hidden: int) -> List[Dict[str, object]]:
        """Per-operation rows for one bar of Figure 5 / Figure 6."""
        timing = self.get(design, n_hidden)
        total = timing.modelled_total
        rows = []
        for operation, seconds in sorted(timing.modelled.seconds.items(),
                                         key=lambda kv: -kv[1]):
            rows.append({
                "operation": operation,
                "count": timing.counts.get(operation, 0),
                "modelled_seconds": round(seconds, 4),
                "fraction": round(seconds / total, 3) if total > 0 else 0.0,
            })
        return rows

    def render(self) -> str:
        return format_table(self.summary_rows(),
                            title="Figure 5 summary: modelled execution time to complete")


def fpga_breakdown_rows(result: ExecutionTimeResult,
                        hidden_sizes: Sequence[int] = FIGURE5_HIDDEN_SIZES
                        ) -> List[Dict[str, object]]:
    """Figure 6: the FPGA design's per-operation breakdown across hidden sizes."""
    rows: List[Dict[str, object]] = []
    for n_hidden in hidden_sizes:
        key = ("FPGA", int(n_hidden))
        if key not in result.timings:
            continue
        timing = result.timings[key]
        row: Dict[str, object] = {
            "n_hidden": n_hidden,
            "total_seconds": round(timing.modelled_total, 4),
        }
        for operation in ("init_train", "predict_init", "predict_seq", "seq_train"):
            row[operation] = round(timing.modelled.seconds.get(operation, 0.0), 4)
        rows.append(row)
    return rows
