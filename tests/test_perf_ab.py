"""The before/after script's summary, fed canned benchmark results.

``scripts/perf_ab.py`` runs the benchmark for minutes, so nothing here runs
it: the tests check how it reads a run's output and summarizes pairs.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("perf_ab", ROOT / "scripts" / "perf_ab.py")
perf_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_ab)

END_TO_END = [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "sim_jobs_per_s", "better": "higher", "bound": 0.1},
    {"name": "rperf_error_pct", "better": "lower", "bound": 0.15},
]


def _result(setup_s, ops_per_s, sim_jobs_per_s=0.78, rperf_error_pct=17.0, failed=0):
    values = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "sim_jobs_per_s": sim_jobs_per_s,
        "rperf_error_pct": rperf_error_pct,
    }
    return {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in values.items()},
    }


def test_seeds_parse_ranges_and_lists():
    assert perf_ab.parse_seeds("1-11") == list(range(1, 12))
    assert perf_ab.parse_seeds("3") == [3]
    assert perf_ab.parse_seeds("1-3,7,9-10") == [1, 2, 3, 7, 9, 10]


def test_the_last_json_line_is_the_result():
    stdout = "# a note\nsetup_s = 0.7 s\n" + json.dumps(_result(0.7, 9000.0)) + "\n\n"
    assert perf_ab.last_json_line(stdout) == _result(0.7, 9000.0)
    with pytest.raises(ValueError):
        perf_ab.last_json_line("\n \n")


def test_summary_has_medians_quartiles_and_pairs_won():
    pairs = [
        (1, _result(1.00, 10000.0), _result(0.70, 10100.0)),
        (2, _result(0.90, 11000.0), _result(0.72, 10900.0)),
        (3, _result(0.95, 10500.0), _result(0.96, 10400.0)),
        (4, _result(1.10, 9000.0), _result(0.69, 9100.0)),
        (5, _result(0.93, 9500.0), _result(0.71, 9600.0)),
    ]
    summary = perf_ab.summarize(pairs, END_TO_END)
    setup = summary["metrics"]["setup_s"]
    assert setup["base"] == {"median": 0.95, "q1": 0.93, "q3": 1.00}
    assert setup["change"] == {"median": 0.71, "q1": 0.70, "q3": 0.72}
    assert setup["base_iqr"] == pytest.approx(0.07)
    assert setup["median_ratio"] == pytest.approx(0.71 / 0.95)
    assert setup["within_bound"] and setup["pairs_won"] == 4 and setup["pairs"] == 5
    ops = summary["metrics"]["ops_per_s"]
    # Higher is better: the change won seeds 1, 4 and 5.
    assert ops["pairs_won"] == 3 and ops["within_bound"]
    assert summary["seeds"] == [1, 2, 3, 4, 5]
    assert summary["identical_per_seed"] == {str(seed): True for seed in range(1, 6)}
    assert summary["failed"] == {"base": 0, "change": 0}


def test_a_changed_simulated_metric_or_a_failure_is_reported():
    pairs = [
        (1, _result(1.0, 100.0), _result(1.0, 100.0, sim_jobs_per_s=0.79)),
        (2, _result(1.0, 100.0), _result(1.0, 100.0, rperf_error_pct=17.5)),
        (
            3,
            _result(1.0, 100.0, sim_jobs_per_s=math.nan),
            _result(1.0, 100.0, sim_jobs_per_s=math.nan),
        ),
        (4, _result(1.0, 100.0, failed=2), _result(1.0, 100.0, failed=3)),
    ]
    summary = perf_ab.summarize(pairs, END_TO_END)
    assert summary["identical_per_seed"] == {"1": False, "2": False, "3": True, "4": True}
    assert summary["failed"] == {"base": 2, "change": 3}
    # Ties win nothing.
    assert summary["metrics"]["setup_s"]["pairs_won"] == 0


def test_a_metric_worse_than_its_bound_is_flagged():
    pairs = [(1, _result(1.0, 100.0), _result(1.3, 70.0))]
    metrics = perf_ab.summarize(pairs, END_TO_END)["metrics"]
    assert not metrics["setup_s"]["within_bound"]
    assert not metrics["ops_per_s"]["within_bound"]
    assert metrics["setup_s"]["base"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}


def test_a_spread_wider_than_the_bound_is_unresolved():
    # setup_s: the base's IQR is 0.05 around a median of 1.0, inside the
    # 0.25 bound; ops_per_s: 5,000 around 10,000 is outside it.
    pairs = [
        (1, _result(0.95, 6000.0), _result(0.96, 9000.0)),
        (2, _result(1.00, 10000.0), _result(0.99, 10500.0)),
        (3, _result(1.05, 16000.0), _result(1.04, 12000.0)),
    ]
    metrics = perf_ab.summarize(pairs, END_TO_END)["metrics"]
    assert metrics["setup_s"]["base_iqr"] == pytest.approx(0.05)
    assert not metrics["setup_s"]["unresolved"]
    assert metrics["ops_per_s"]["base_iqr"] == pytest.approx(5000.0)
    assert metrics["ops_per_s"]["unresolved"]
    # A constant metric is resolved.
    assert not metrics["sim_jobs_per_s"]["unresolved"]


def test_a_wide_spread_is_resolved_when_every_change_run_wins():
    # The same wide base, but every change run beats every base run.
    pairs = [
        (1, _result(1.0, 6000.0), _result(1.0, 17000.0)),
        (2, _result(1.0, 10000.0), _result(1.0, 18000.0)),
        (3, _result(1.0, 16000.0), _result(1.0, 20000.0)),
    ]
    ops = perf_ab.summarize(pairs, END_TO_END)["metrics"]["ops_per_s"]
    assert ops["base_iqr"] / ops["base"]["median"] > 0.25
    assert not ops["unresolved"]
    # One change run inside the base's range makes it unresolved again.
    pairs[0] = (1, _result(1.0, 6000.0), _result(1.0, 12000.0))
    assert perf_ab.summarize(pairs, END_TO_END)["metrics"]["ops_per_s"]["unresolved"]
