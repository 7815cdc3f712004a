"""Tests for the lint service boundary: typed request/result objects, the
service facade, and the CLI's exit-code and ``--json`` contracts."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import LintRequest, LintResult, PlannerService
from repro.cli import EXIT_CONFIG, EXIT_LINT_FINDINGS, main
from repro.errors import ConfigurationError
from repro.lint.findings import Finding

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
CLEAN = str(FIXTURES / "rl006_ok.py")
DIRTY = str(FIXTURES / "rl006_bad.py")


def run_cli(argv):
    lines: list[str] = []
    code = main(argv, out=lines.append)
    return code, "\n".join(lines)


class TestLintRequest:
    def test_bare_string_path_is_rejected(self):
        with pytest.raises(ConfigurationError, match="bare string"):
            LintRequest(paths="src")

    def test_empty_paths_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one path"):
            LintRequest(paths=())

    def test_unknown_select_rejected_at_the_boundary(self):
        with pytest.raises(ConfigurationError, match="unknown rule id"):
            LintRequest(paths=("src",), select=("RL042",))

    def test_round_trip_through_json(self):
        request = LintRequest(paths=("src", "tests"), strict=True, select=("RL001",))
        rebuilt = LintRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert rebuilt == request

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            LintRequest.from_dict({"paths": ["src"], "mode": "fast"})


class TestServiceLint:
    def test_lint_returns_typed_result_and_counts_calls(self):
        service = PlannerService()
        before = service.stats.lints_served
        result = service.lint(LintRequest(paths=(DIRTY,), strict=True))
        assert isinstance(result, LintResult)
        assert service.stats.lints_served == before + 1
        assert not result.clean
        assert result.n_errors >= 3
        assert "lints_served" in service.stats.as_dict()

    def test_clean_fixture_yields_clean_result(self):
        result = PlannerService().lint(LintRequest(paths=(CLEAN,), strict=True))
        assert result.clean
        assert result.findings == ()
        assert result.files_scanned == 1

    def test_result_round_trips_through_json(self):
        result = PlannerService().lint(LintRequest(paths=(DIRTY,)))
        rebuilt = LintResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result
        assert all(isinstance(row, Finding) for row in rebuilt.findings)

    def test_describe_ends_with_verdict_line(self):
        result = PlannerService().lint(LintRequest(paths=(CLEAN,), strict=True))
        assert result.describe().endswith(
            "clean (strict): 0 finding(s) (0 error(s), 0 warning(s)), "
            "0 suppressed, 1 file(s) scanned"
        )


class TestCliLint:
    def test_clean_path_exits_zero(self):
        code, text = run_cli(["lint", CLEAN, "--strict"])
        assert code == 0
        assert "clean (strict)" in text

    def test_findings_exit_one_with_locations(self):
        code, text = run_cli(["lint", DIRTY])
        assert code == EXIT_LINT_FINDINGS
        assert "RL006" in text
        assert "rl006_bad.py:11:" in text

    def test_missing_path_is_a_config_error(self):
        code, text = run_cli(["lint", str(FIXTURES / "nope.py")])
        assert code == EXIT_CONFIG
        assert "does not exist" in text

    def test_unknown_select_is_a_config_error(self):
        code, text = run_cli(["lint", CLEAN, "--select", "RL042"])
        assert code == EXIT_CONFIG
        assert "unknown rule id" in text

    def test_select_narrows_the_run(self):
        code, _ = run_cli(["lint", DIRTY, "--select", "RL001"])
        assert code == 0  # the RL006 fixture is clean under RL001 alone

    def test_json_output_round_trips(self):
        code, text = run_cli(["lint", DIRTY, "--json"])
        assert code == EXIT_LINT_FINDINGS
        result = LintResult.from_dict(json.loads(text))
        assert not result.clean
        assert result.findings

    def test_list_rules_documents_the_registry(self):
        code, text = run_cli(["lint", "--list-rules"])
        assert code == 0
        for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006"):
            assert rule_id in text

    def test_strict_self_run_over_src_is_clean(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        code, text = run_cli(["lint", src, "--strict"])
        assert code == 0
        assert "clean (strict)" in text
