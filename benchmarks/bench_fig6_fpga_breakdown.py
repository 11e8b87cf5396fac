"""Benchmark E4 — Figure 6: per-operation breakdown of the FPGA design.

Trains the FPGA design at CI scale, projects its operation counts through the
platform model and prints the init_train / predict_init / predict_seq /
seq_train split across hidden-layer sizes — the bars of Figure 6.  Verifies
the paper's observation that seq_train dominates and that the total grows
with the hidden-layer size.
"""

from __future__ import annotations

import pytest

from repro.api import run as run_experiment
from repro.experiments.execution_time import ExecutionTimeExperiment, fpga_breakdown_rows
from repro.experiments.reporting import format_table
from repro.fpga.platform import PynqZ1Platform
from repro.training import TrainingConfig


def _run(hidden_sizes):
    experiment = ExecutionTimeExperiment(
        designs=("FPGA",),
        hidden_sizes=hidden_sizes,
        training=TrainingConfig(max_episodes=50, solved_threshold=100.0, solved_window=20),
        seed=21,
    )
    report = run_experiment(experiment.to_spec(), backend="serial")
    return report.to_execution_time_result(platform=experiment.platform)


@pytest.mark.benchmark(group="figure6", min_rounds=1, max_time=1.0)
def test_figure6_fpga_breakdown_ci(benchmark):
    result = benchmark.pedantic(_run, args=((16, 32),), rounds=1, iterations=1)
    rows = fpga_breakdown_rows(result, hidden_sizes=(16, 32))
    print()
    print(format_table(rows, float_format=".4f",
                       title="Figure 6: FPGA design execution-time breakdown (modelled)"))
    assert len(rows) == 2
    # The total modelled time grows with the hidden-layer size.
    assert rows[1]["total_seconds"] > rows[0]["total_seconds"]
    for row in rows:
        assert row["seq_train"] >= 0.0
        assert row["init_train"] > 0.0


@pytest.mark.benchmark(group="figure6", min_rounds=1, max_time=1.0)
def test_figure6_seq_train_dominates_at_scale(benchmark, full_hidden_sizes):
    """At the paper's hidden sizes the sequential-training time dominates the
    FPGA design's modelled breakdown once training is underway."""
    platform = PynqZ1Platform()
    # A representative post-initialisation workload: 3 predictions per step,
    # one update every other step, over 20,000 steps.
    counts = {"predict_seq": 60_000, "seq_train": 10_000, "init_train": 1,
              "predict_init": 200}

    def project_all():
        return {n: platform.project_breakdown("FPGA", counts, n_hidden=n)
                for n in full_hidden_sizes}

    projections = benchmark(project_all)
    print()
    rows = []
    for n_hidden, breakdown in projections.items():
        rows.append({
            "n_hidden": n_hidden,
            "total_s": breakdown.total(),
            "seq_train_fraction": breakdown.fraction("seq_train"),
        })
    print(format_table(rows, float_format=".3f",
                       title="FPGA breakdown vs hidden size (fixed workload)"))
    for n_hidden, breakdown in projections.items():
        if n_hidden >= 128:
            assert breakdown.fraction("seq_train") > 0.5
    totals = [projections[n].total() for n in full_hidden_sizes]
    assert totals == sorted(totals)
