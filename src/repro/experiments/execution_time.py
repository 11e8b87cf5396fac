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

:class:`ExecutionTimeExperiment` is a view over the unified experiment API
(the registered ``figure5``/``table2`` spec): run it with
``repro.api.run(experiment.to_spec())`` and project the operation counts
with ``report.to_execution_time_result(platform=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.designs import DESIGN_NAMES, make_design
from repro.experiments.reporting import format_table
from repro.fpga.platform import PynqZ1Platform
from repro.training.records import TrainingResult
from repro.training import Trainer, TrainingConfig
from repro.utils.logging import get_logger
from repro.utils.seeding import stable_hash
from repro.utils.timer import TimeBreakdown

_LOGGER = get_logger("repro.experiments.execution_time")

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

    The single projection implementation shared by the legacy harness and
    the unified API's report adapters: trial artifacts store
    platform-independent counts, and this turns them into modelled seconds.
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
        """Modelled completion-time ratio DQN / design (None when either is missing)."""
        key_dqn = ("DQN", n_hidden)
        key = (design, n_hidden)
        if key_dqn not in self.timings or key not in self.timings:
            return None
        denominator = self.timings[key].modelled_total
        if denominator <= 0:
            return None
        return self.timings[key_dqn].modelled_total / denominator

    def summary_rows(self) -> List[Dict[str, object]]:
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


@dataclass(frozen=True)
class ExecutionTimeExperiment:
    """Configuration + runner for the Figure 5/6 experiment."""

    designs: Sequence[str] = DESIGN_NAMES
    hidden_sizes: Sequence[int] = FIGURE5_HIDDEN_SIZES
    training: TrainingConfig = field(default_factory=lambda: TrainingConfig(max_episodes=300))
    platform: PynqZ1Platform = field(default_factory=PynqZ1Platform)
    seed: int = 7
    gamma: float = 0.99

    @staticmethod
    def paper_scale() -> "ExecutionTimeExperiment":
        """Full Section 4.4 protocol (50,000-episode cutoff).

        Routed through the registered ``figure5`` paper-scale spec, so the
        two scales differ only in declarative budget/grid fields.
        """
        from repro.api.registry import get_spec

        return ExecutionTimeExperiment.from_spec(get_spec("figure5", scale="paper"))

    @staticmethod
    def ci_scale(designs: Sequence[str] = ("OS-ELM-L2-Lipschitz", "DQN", "FPGA"),
                 hidden_sizes: Sequence[int] = (32,),
                 max_episodes: int = 60) -> "ExecutionTimeExperiment":
        """A minutes-scale configuration used by the benchmark suite.

        The registered ``figure5`` CI spec with the grid/budget overrides
        applied — the same code path as ``paper_scale()``.
        """
        from repro.api.registry import get_spec

        spec = get_spec("figure5", scale="ci").with_grid(
            designs=tuple(designs), hidden_sizes=tuple(hidden_sizes),
        ).with_budget(max_episodes=max_episodes)
        return ExecutionTimeExperiment.from_spec(spec)

    # ------------------------------------------------------------------ spec bridge
    @staticmethod
    def from_spec(spec, platform: Optional[PynqZ1Platform] = None
                  ) -> "ExecutionTimeExperiment":
        """Build the legacy harness view of an execution-time spec."""
        return ExecutionTimeExperiment(
            designs=spec.designs,
            hidden_sizes=spec.hidden_sizes,
            training=spec.budget.training_config(env_id=spec.env_ids[0]),
            platform=platform if platform is not None else PynqZ1Platform(),
            seed=spec.seed,
            gamma=spec.gamma,
        )

    def to_spec(self, name: str = "execution-time"):
        """This configuration as a declarative :class:`~repro.api.ExperimentSpec`.

        The platform model is *not* part of the spec: trials record
        platform-independent operation counts, and the projection happens at
        report time with whatever platform the caller supplies.  Note
        ``record_lipschitz`` is dropped, exactly as ``run_single`` has
        always done for this harness.
        """
        from repro.api.spec import Budget, ExperimentSpec
        from dataclasses import replace as dc_replace

        budget = dc_replace(Budget.from_training_config(self.training),
                            record_lipschitz=False)
        return ExperimentSpec(
            name=name,
            kind="execution_time",
            designs=tuple(self.designs),
            hidden_sizes=tuple(int(h) for h in self.hidden_sizes),
            env_ids=(self.training.env_id,),
            n_seeds=1,
            seed=self.seed,
            gamma=self.gamma,
            budget=budget,
            seed_stride=13,
            seed_mod=991,
        )

    # ------------------------------------------------------------------ execution
    def run_single(self, design: str, n_hidden: int, *, trial: int = 0) -> DesignTiming:
        seed = self.seed + 1000 * trial + 13 * n_hidden + stable_hash(design) % 991
        agent = make_design(design, n_hidden=n_hidden, gamma=self.gamma, seed=seed)
        config = TrainingConfig(
            env_id=self.training.env_id,
            max_episodes=self.training.max_episodes,
            max_steps_per_episode=self.training.max_steps_per_episode,
            solved_threshold=self.training.solved_threshold,
            solved_window=self.training.solved_window,
            reward_shaping=self.training.reward_shaping,
            success_steps=self.training.success_steps,
            stop_when_solved=self.training.stop_when_solved,
            seed=seed,
        )
        _LOGGER.info("timing run", design=design, n_hidden=n_hidden)
        result = Trainer().fit(agent, config=config, n_hidden=n_hidden)
        return self.project(result)

    def project(self, result: TrainingResult) -> DesignTiming:
        """Project a finished training run's operation counts through the platform model."""
        return project_timing(result, self.platform)


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
