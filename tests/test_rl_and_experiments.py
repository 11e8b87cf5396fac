"""Tests for the training runner, schedules, recording and experiment reports."""

import numpy as np
import pytest

from repro.api import get_spec, run as run_experiment
from repro.core.designs import make_design
from repro.experiments.execution_time import (
    PAPER_EXECUTION_TIMES,
    PAPER_SPEEDUPS,
    DesignTiming,
    ExecutionTimeResult,
    fpga_breakdown_rows,
    project_timing,
)
from repro.experiments.reporting import (
    format_table,
    paper_comparison_rows,
    relative_error,
    rows_to_csv,
)
from repro.experiments.resource_table import compare_with_paper, render_table3, resource_table
from repro.experiments.training_curve import TrainingCurveResult, stability_classification
from repro.fpga.platform import PynqZ1Platform
from repro.rl import evaluate_agent
from repro.rl.schedule import ConstantSchedule, ExponentialDecaySchedule, LinearSchedule
from repro.training import (
    EpisodeRecord,
    Trainer,
    TrainingConfig,
    TrainingCurve,
    TrainingResult,
)
from repro.utils.timer import TimeBreakdown


class TestSchedules:
    def test_constant(self):
        schedule = ConstantSchedule(0.7)
        assert schedule(0) == 0.7 and schedule(10_000) == 0.7

    def test_linear(self):
        schedule = LinearSchedule(1.0, 0.0, duration=10)
        assert schedule(0) == 1.0
        assert schedule(5) == pytest.approx(0.5)
        assert schedule(50) == 0.0

    def test_exponential(self):
        schedule = ExponentialDecaySchedule(1.0, 0.1, decay=0.9)
        assert schedule(0) == pytest.approx(1.0)
        assert schedule(100) == pytest.approx(0.1, abs=1e-3)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            ConstantSchedule(1.0)(-1)

    def test_invalid_decay(self):
        with pytest.raises(ValueError):
            ExponentialDecaySchedule(1.0, 0.0, decay=1.5)


class TestRecording:
    def test_training_curve_series(self):
        curve = TrainingCurve()
        for episode in range(1, 6):
            curve.append(EpisodeRecord(episode, episode * 10, 0.0, episode * 5.0))
        assert len(curve) == 5
        np.testing.assert_array_equal(curve.episodes, [1, 2, 3, 4, 5])
        np.testing.assert_array_equal(curve.steps, [10, 20, 30, 40, 50])
        assert curve.final_average(2) == pytest.approx(45.0)
        assert set(curve.as_dict()) == {"episodes", "steps", "moving_average"}

    def test_training_result_summary(self):
        curve = TrainingCurve([EpisodeRecord(1, 100, 1.0, 100.0)])
        breakdown = TimeBreakdown()
        breakdown.add("seq_train", 1.0, 10)
        result = TrainingResult("OS-ELM", 64, True, 1, 1, 2.0, curve, breakdown)
        summary = result.summary()
        assert summary["design"] == "OS-ELM"
        assert summary["solved"] is True
        assert summary["operation_counts"]["seq_train"] == 10
        assert result.completed


class TestRunner:
    def test_training_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(max_episodes=0)
        with pytest.raises(ValueError):
            TrainingConfig(solved_window=0)

    def test_train_agent_returns_result(self):
        agent = make_design("OS-ELM-L2", n_hidden=16, seed=1)
        config = TrainingConfig(max_episodes=12, solved_threshold=500.0, seed=1)
        result = Trainer().fit(agent, config=config)
        assert result.episodes == 12
        assert not result.solved
        assert len(result.curve) == 12
        assert result.n_hidden == 16
        assert result.breakdown.total() > 0
        assert all(record.steps >= 1 for record in result.curve.records)

    def test_train_agent_stops_when_solved(self):
        # A trivially low threshold is reached as soon as the window fills.
        agent = make_design("OS-ELM-L2", n_hidden=8, seed=0)
        config = TrainingConfig(max_episodes=200, solved_threshold=2.0, solved_window=5, seed=0)
        result = Trainer().fit(agent, config=config)
        assert result.solved
        assert result.episodes_to_solve == result.episodes < 200

    def test_train_agent_dqn(self):
        agent = make_design("DQN", n_hidden=16, seed=0, min_replay_size=32)
        config = TrainingConfig(max_episodes=6, seed=0)
        result = Trainer().fit(agent, config=config)
        assert result.design == "DQN"
        assert result.breakdown.counts.get("predict_1", 0) > 0

    def test_train_agent_accepts_env_instance(self, cartpole_env):
        agent = make_design("OS-ELM", n_hidden=8, seed=0)
        result = Trainer().fit(agent, cartpole_env, config=TrainingConfig(max_episodes=3, seed=0))
        assert result.episodes == 3

    def test_reward_shaping_bounds(self):
        """With shaping on, every shaped return lies in [-1, +1]."""
        agent = make_design("OS-ELM-L2", n_hidden=8, seed=0)
        config = TrainingConfig(max_episodes=10, reward_shaping=True, seed=0)
        result = Trainer().fit(agent, config=config)
        assert all(-1.0 <= r.shaped_return <= 1.0 for r in result.curve.records)

    def test_record_lipschitz_option(self):
        agent = make_design("OS-ELM-L2", n_hidden=8, seed=0)
        config = TrainingConfig(max_episodes=5, record_lipschitz=True, seed=0)
        result = Trainer().fit(agent, config=config)
        assert np.isfinite(result.curve.lipschitz_bounds[-1])

    def test_evaluate_agent(self):
        agent = make_design("OS-ELM-L2", n_hidden=8, seed=0)
        Trainer().fit(agent, config=TrainingConfig(max_episodes=5, seed=0))
        lengths = evaluate_agent(agent, n_episodes=3, config=TrainingConfig(seed=1))
        assert lengths.shape == (3,)
        assert np.all(lengths >= 1)

    def test_evaluate_agent_invalid(self):
        agent = make_design("OS-ELM-L2", n_hidden=8, seed=0)
        with pytest.raises(ValueError):
            evaluate_agent(agent, n_episodes=0)


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"design": "DQN", "seconds": 3232.54}, {"design": "FPGA", "seconds": 6.88}]
        text = format_table(rows, title="Figure 5")
        assert "Figure 5" in text
        assert "DQN" in text and "FPGA" in text
        assert "3232.54" in text

    def test_format_table_empty(self):
        assert "(empty)" in format_table([])

    def test_format_table_none_cells(self):
        text = format_table([{"a": None, "b": True}])
        assert "-" in text and "yes" in text

    def test_rows_to_csv(self):
        csv_text = rows_to_csv([{"a": 1, "b": "x,y"}])
        assert csv_text.splitlines()[0] == "a,b"
        assert '"x,y"' in csv_text

    def test_relative_error(self):
        assert relative_error(110.0, 100.0) == pytest.approx(0.1)
        assert relative_error(1.0, 0.0) == float("inf")
        assert relative_error(0.0, 0.0) == 0.0

    def test_paper_comparison_rows(self):
        rows = paper_comparison_rows({"speedup": 20.0}, {"speedup": 29.76})
        assert rows[0]["paper"] == 29.76
        assert rows[0]["relative_error"] == pytest.approx(abs(20 - 29.76) / 29.76)


class TestResourceTableExperiment:
    def test_resource_table_rows(self):
        report = resource_table()
        assert [row.n_hidden for row in report.rows] == [32, 64, 128, 192, 256]

    def test_render_table3_contains_all_rows(self):
        text = render_table3()
        for units in ("32", "64", "128", "192", "256"):
            assert units in text

    def test_compare_with_paper_structure(self):
        rows = compare_with_paper()
        units_covered = {row["Units"] for row in rows}
        assert units_covered == {32, 64, 128, 192, 256}
        # the 256-unit entry compares the fits flag and must agree with the paper
        unfit = [row for row in rows if row["Units"] == 256][0]
        assert unfit["agreement"] is True
        # BRAM errors stay within 15 % of the paper's numbers
        bram_rows = [row for row in rows if row.get("resource") == "BRAM"]
        assert all(row["relative_error"] <= 0.15 for row in bram_rows)


class TestFigure4Spec:
    def test_ci_scale_run(self):
        spec = get_spec("figure4", scale="ci").with_grid(
            designs=("OS-ELM-L2",), hidden_sizes=(16,)).with_budget(max_episodes=8)
        report = run_experiment(spec, backend="serial")
        collected = report.to_training_curve_result()
        assert ("OS-ELM-L2", 16) in collected.results
        rows = collected.summary_rows()
        assert rows[0]["episodes"] <= 8
        series = collected.curve_series("OS-ELM-L2", 16)
        assert len(series["steps"]) == rows[0]["episodes"]
        assert "Figure 4" in collected.render()

    def test_result_indexes_designs_and_sizes(self):
        collected = TrainingCurveResult()
        for design, n_hidden in (("DQN", 64), ("ELM", 32), ("DQN", 32)):
            collected.add(TrainingResult(design, n_hidden, False, 3, None, 1.0,
                                         TrainingCurve(), TimeBreakdown()))
        assert collected.designs() == ["DQN", "ELM"]
        assert collected.hidden_sizes() == [32, 64]
        rows = collected.summary_rows()
        assert [(row["n_hidden"], row["design"]) for row in rows] == \
            [(32, "DQN"), (32, "ELM"), (64, "DQN")]

    def test_paper_scale_configuration(self):
        budget = get_spec("figure4", scale="paper").budget
        assert budget.max_episodes == 50_000
        assert budget.solved_threshold == 195.0

    def test_stability_classification(self):
        solved = TrainingResult("X", 32, True, 10, 10, 1.0, TrainingCurve(), TimeBreakdown())
        assert stability_classification(solved) == "solved"
        # A collapsing curve: rises then falls sharply (the paper's plain OS-ELM behaviour).
        curve = TrainingCurve()
        for episode in range(1, 201):
            steps = 150 if episode < 100 else 10
            avg = 150.0 if episode < 100 else max(10.0, 150 - (episode - 100) * 2)
            curve.append(EpisodeRecord(episode, steps, 0.0, avg))
        collapsed = TrainingResult("OS-ELM", 32, False, 200, None, 1.0, curve, TimeBreakdown())
        assert stability_classification(collapsed) == "collapsed"
        flat = TrainingCurve()
        for episode in range(1, 50):
            flat.append(EpisodeRecord(episode, 10, 0.0, 10.0))
        dull = TrainingResult("OS-ELM", 32, False, 49, None, 1.0, flat, TimeBreakdown())
        assert stability_classification(dull) == "not_learning"


class TestFigure5Spec:
    def test_paper_reference_tables_complete(self):
        assert set(PAPER_EXECUTION_TIMES) == {32, 64, 128, 192}
        assert PAPER_SPEEDUPS[64]["OS-ELM-L2-Lipschitz"] == 29.76
        assert PAPER_SPEEDUPS[64]["FPGA"] == 126.06

    def test_ci_scale_run_and_speedups(self):
        spec = get_spec("figure5", scale="ci").with_grid(
            designs=("OS-ELM-L2", "DQN", "FPGA"), hidden_sizes=(16,)).with_budget(max_episodes=6)
        report = run_experiment(spec, backend="serial")
        result = report.to_execution_time_result(platform=PynqZ1Platform())
        assert isinstance(result, ExecutionTimeResult)
        for design in ("OS-ELM-L2", "DQN", "FPGA"):
            timing = result.get(design, 16)
            assert timing.modelled_total > 0
            assert timing.measured_total > 0
        # The proposed designs run the same (small) workload faster than DQN
        # under the platform latency model.
        assert result.get("DQN", 16).modelled_total > result.get("OS-ELM-L2", 16).modelled_total
        assert result.get("DQN", 16).modelled_total > result.get("FPGA", 16).modelled_total
        # FPGA is at least as fast as the software OS-ELM design.
        assert result.get("FPGA", 16).modelled_total <= result.get("OS-ELM-L2", 16).modelled_total
        rows = result.summary_rows()
        assert len(rows) == 3
        assert "Figure 5" in result.render()

    def test_breakdown_rows(self):
        spec = get_spec("figure5", scale="ci").with_grid(
            designs=("FPGA",), hidden_sizes=(16,)).with_budget(max_episodes=4)
        report = run_experiment(spec, backend="serial")
        result = report.to_execution_time_result(platform=PynqZ1Platform())
        rows = result.breakdown_rows("FPGA", 16)
        assert sum(row["fraction"] for row in rows) == pytest.approx(1.0, abs=0.01)
        fig6 = fpga_breakdown_rows(result, hidden_sizes=(16,))
        assert fig6[0]["n_hidden"] == 16
        assert fig6[0]["total_seconds"] > 0

    def test_speedup_missing_design_returns_none(self):
        assert ExecutionTimeResult().speedup_vs_dqn("FPGA", 64) is None

    def test_speedup_defined_only_when_both_solved(self):
        def timing(design, solved, seconds):
            modelled = TimeBreakdown()
            modelled.add("seq_train", seconds)
            return DesignTiming(design=design, n_hidden=64, solved=solved, episodes=10,
                                modelled=modelled, measured=TimeBreakdown(), counts={})

        solved = ExecutionTimeResult()
        solved.add(timing("DQN", True, 30.0))
        solved.add(timing("FPGA", True, 2.0))
        assert solved.speedup_vs_dqn("FPGA", 64) == pytest.approx(15.0)
        assert solved.summary_rows()[1]["speedup_vs_DQN"] == 15.0

        unsolved = ExecutionTimeResult()
        unsolved.add(timing("DQN", True, 30.0))
        unsolved.add(timing("FPGA", False, 2.0))
        assert unsolved.speedup_vs_dqn("FPGA", 64) is None
        assert unsolved.summary_rows()[1]["speedup_vs_DQN"] is None

    def test_speedup_none_when_dqn_unsolved(self):
        def timing(design, solved):
            modelled = TimeBreakdown()
            modelled.add("seq_train", 4.0)
            return DesignTiming(design=design, n_hidden=32, solved=solved, episodes=60,
                                modelled=modelled, measured=TimeBreakdown(), counts={})

        result = ExecutionTimeResult()
        result.add(timing("DQN", False))
        result.add(timing("FPGA", True))
        assert result.speedup_vs_dqn("FPGA", 32) is None
        fpga_row = result.render().splitlines()[-1]
        assert fpga_row.startswith("FPGA") and fpga_row.rstrip().endswith("-")

    def test_project_timing_uses_platform_counts(self):
        measured = TimeBreakdown()
        measured.add("seq_train", 0.25, count=40)
        measured.add("predict_seq", 0.5, count=80)
        result = TrainingResult("FPGA", 32, True, 12, 12, 1.0, TrainingCurve(), measured)
        platform = PynqZ1Platform()
        timing = project_timing(result, platform)
        expected = platform.project_breakdown("FPGA", measured.counts, n_hidden=32)
        assert timing.modelled.seconds == expected.seconds
        assert timing.counts == {"seq_train": 40, "predict_seq": 80}
        assert timing.measured_total == pytest.approx(0.75)
        assert (timing.design, timing.n_hidden, timing.solved, timing.episodes) == \
            ("FPGA", 32, True, 12)

    def test_breakdown_rows_of_empty_timing(self):
        result = ExecutionTimeResult()
        result.add(DesignTiming(design="FPGA", n_hidden=32, solved=False, episodes=0,
                                modelled=TimeBreakdown(), measured=TimeBreakdown(),
                                counts={}))
        assert result.breakdown_rows("FPGA", 32) == []
        assert result.speedup_vs_dqn("FPGA", 32) is None
        assert result.summary_rows()[0]["modelled_seconds"] == 0.0

    def test_fpga_breakdown_skips_missing_sizes(self):
        modelled = TimeBreakdown()
        modelled.add("seq_train", 1.5)
        modelled.add("predict_seq", 0.5)
        result = ExecutionTimeResult()
        result.add(DesignTiming(design="FPGA", n_hidden=64, solved=True, episodes=5,
                                modelled=modelled, measured=TimeBreakdown(), counts={}))
        rows = fpga_breakdown_rows(result)
        assert [row["n_hidden"] for row in rows] == [64]
        assert rows[0]["total_seconds"] == pytest.approx(2.0)
        assert rows[0]["seq_train"] == pytest.approx(1.5)
        assert rows[0]["init_train"] == 0.0
