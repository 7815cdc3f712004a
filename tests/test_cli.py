"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


def run_cli(argv):
    """Run the CLI, capturing its output lines; returns (exit_code, text)."""
    lines: list[str] = []
    code = main(argv, out=lines.append)
    return code, "\n".join(lines)


class TestListAndClassify:
    def test_list_benchmarks(self):
        code, text = run_cli(["list-benchmarks"])
        assert code == 0
        assert "stream" in text and "hgemm" in text
        assert "tensor" in text

    def test_classify_matches_paper(self):
        code, text = run_cli(["classify"])
        assert code == 0
        assert "agreement with the paper's Table 7: 100%" in text


class TestScalability:
    def test_scalability_option_sweep(self):
        code, text = run_cli(["scalability", "stream"])
        assert code == 0
        assert "private" in text and "shared" in text

    def test_scalability_power_sweep(self):
        code, text = run_cli(["scalability", "hgemm", "--sweep-power"])
        assert code == 0
        assert "150W" in text and "250W" in text

    def test_unknown_kernel_is_an_error(self):
        code, text = run_cli(["scalability", "not-a-benchmark"])
        assert code == 2
        assert "error" in text.lower()


class TestDecide:
    def test_problem1_decision(self):
        code, text = run_cli(["decide", "igemm4", "stream", "--policy", "problem1", "--power-cap", "230"])
        assert code == 0
        assert "choose" in text
        assert "S1" in text  # evaluations table lists every candidate state

    def test_problem2_decision(self):
        code, text = run_cli(["decide", "srad", "needle", "--policy", "problem2", "--alpha", "0.2"])
        assert code == 0
        assert "problem2" in text

    def test_unprofiled_app_is_an_error(self):
        code, text = run_cli(["decide", "igemm4", "unknown-app"])
        assert code == 2
        assert "error" in text.lower()


class TestSimulate:
    def test_synthetic_poisson_simulation(self):
        code, text = run_cli(
            ["simulate", "--arrival-rate", "2.0", "--duration", "20", "--nodes", "2"]
        )
        assert code == 0
        assert "jobs over" in text  # trace summary
        assert "p99" in text and "utilization" in text and "energy" in text

    def test_jobs_cap_limits_the_trace(self):
        code, text = run_cli(
            ["simulate", "--arrival-rate", "4.0", "--duration", "100",
             "--jobs", "10", "--nodes", "2"]
        )
        assert code == 0
        assert "10 jobs on 2 node(s)" in text

    def test_jobs_cap_applies_to_bursty_traces_too(self):
        code, text = run_cli(
            ["simulate", "--arrival-rate", "4.0", "--duration", "100",
             "--burst-size", "3", "--jobs", "10", "--nodes", "2"]
        )
        assert code == 0
        assert "10 jobs on 2 node(s)" in text

    def test_pair_model_cache_rejected_for_nway_decide(self, tmp_path):
        model_path = tmp_path / "model.json"
        code, _ = run_cli(["decide", "igemm4", "stream", "--model", str(model_path)])
        assert code == 0
        code, text = run_cli(
            ["decide", "igemm4", "stream", "bfs", "--model", str(model_path)]
        )
        assert code == 4  # the stable model-cache exit code
        assert "different partition-state grid" in text

    def test_bursty_generator_and_budget(self):
        code, text = run_cli(
            ["simulate", "--arrival-rate", "2.0", "--duration", "15",
             "--burst-size", "3", "--nodes", "2", "--power-budget", "420",
             "--repartition-latency", "0.5"]
        )
        assert code == 0
        assert "rebalances=" in text
        assert "power allocation" in text

    def test_trace_file_roundtrip(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, _ = run_cli(
            ["simulate", "--arrival-rate", "2.0", "--duration", "10",
             "--nodes", "1", "--save-trace", str(trace_path)]
        )
        assert code == 0
        code, text = run_cli(["simulate", "--trace", str(trace_path), "--nodes", "1"])
        assert code == 0
        assert "node(s)" in text

    def test_missing_trace_file_is_an_error(self):
        code, text = run_cli(["simulate", "--trace", "/nonexistent/trace.csv"])
        assert code == 2
        assert "error" in text.lower()

    def test_profile_appends_hotspot_report(self):
        code, text = run_cli(
            ["simulate", "--arrival-rate", "2.0", "--duration", "10",
             "--nodes", "1", "--jobs", "10", "--profile", "5"]
        )
        assert code == 0
        # The normal report still renders, followed by the profile table.
        assert "node(s)" in text
        assert "top 5 call sites by cumulative time" in text
        assert "cumulative[s]" in text
        # The simulator's event loop must show up among the hot spots.
        assert "run" in text

    def test_profile_conflicts_with_json(self):
        code, text = run_cli(
            ["simulate", "--duration", "5", "--jobs", "2", "--profile", "--json"]
        )
        assert code == 2
        assert "--profile cannot be combined with --json" in text

    def test_mix_selects_application_population(self):
        code, text = run_cli(
            ["simulate", "--arrival-rate", "3.0", "--duration", "10",
             "--nodes", "1", "--mix", "tensor-heavy", "--seed", "3"]
        )
        assert code == 0

    def test_model_cache_round_trip(self, tmp_path):
        model_path = tmp_path / "model.json"
        code, first = run_cli(
            ["decide", "igemm4", "stream", "--policy", "problem1",
             "--power-cap", "230", "--model", str(model_path)]
        )
        assert code == 0
        assert model_path.exists()
        code, second = run_cli(
            ["decide", "igemm4", "stream", "--policy", "problem1",
             "--power-cap", "230", "--model", str(model_path)]
        )
        assert code == 0
        # The cached run reproduces the trained decision verbatim.
        assert first.splitlines()[0] == second.splitlines()[0]

    def test_simulate_accepts_model_cache(self, tmp_path):
        model_path = tmp_path / "model.json"
        args = ["simulate", "--arrival-rate", "2.0", "--duration", "10",
                "--nodes", "1", "--model", str(model_path)]
        code, _ = run_cli(args)
        assert code == 0
        assert model_path.exists()
        code, _ = run_cli(args)
        assert code == 0


class TestExitCodes:
    """One stable exit code per ReproError family, mapped in one place."""

    def test_exit_code_map_is_most_specific_first(self):
        from repro.cli import (
            EXIT_CONFIG,
            EXIT_INFEASIBLE,
            EXIT_MODEL_CACHE,
            exit_code_for,
        )
        from repro.errors import (
            ConfigurationError,
            InfeasibleProblemError,
            ModelCacheError,
            OptimizationError,
            ReproError,
            TraceError,
        )

        assert exit_code_for(ModelCacheError("stale")) == EXIT_MODEL_CACHE == 4
        assert exit_code_for(InfeasibleProblemError("no candidate")) == EXIT_INFEASIBLE == 3
        assert exit_code_for(OptimizationError("boom")) == EXIT_INFEASIBLE
        assert exit_code_for(ConfigurationError("bad")) == EXIT_CONFIG == 2
        assert exit_code_for(TraceError("bad trace")) == EXIT_CONFIG
        assert exit_code_for(ReproError("generic")) == EXIT_CONFIG

    def test_infeasible_problem_exits_3(self):
        code, text = run_cli(
            ["decide", "igemm4", "stream", "--policy", "problem1",
             "--power-cap", "230", "--alpha", "0.99"]
        )
        assert code == 3
        assert "fairness constraint" in text

    def test_configuration_error_exits_2(self):
        code, text = run_cli(
            ["decide", "igemm4", "stream", "--alpha", "1.5"]
        )
        assert code == 2
        assert "alpha" in text

    @pytest.mark.parametrize(
        "argv, knob",
        [
            # Used to exit 0 with the budget silently ignored.
            (["simulate", "--power-budget", "nan", "--duration", "10"], "power_budget_w"),
            # Used to loop until killed: no arrival time exceeds NaN.
            (["simulate", "--duration", "nan"], "duration_s"),
            # Used to exit 3 (infeasible) instead of 2 (input error).
            (["decide", "igemm4", "stream", "--power-cap", "nan"], "power_cap_w"),
        ],
        ids=["simulate-power-budget", "simulate-duration", "decide-power-cap"],
    )
    def test_nan_knob_exits_2(self, argv, knob):
        code, text = run_cli(argv)
        assert code == 2
        assert knob in text

    def test_unbounded_duration_exits_2(self):
        code, text = run_cli(["simulate", "--duration", "inf"])
        assert code == 2
        assert "duration_s" in text


class TestAccuracyAndFigures:
    def test_accuracy_summary(self):
        code, text = run_cli(["accuracy"])
        assert code == 0
        assert "throughput" in text and "fairness" in text

    @pytest.mark.parametrize("number", ["6", "9", "10"])
    def test_figure_regeneration(self, number):
        code, text = run_cli(["figure", number])
        assert code == 0
        assert len(text.splitlines()) >= 4

    def test_invalid_figure_number_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            run_cli(["figure", "7"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            run_cli([])
