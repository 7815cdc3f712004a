"""Tests for the analyzer machinery: discovery, suppression, reporting —
and the gate that matters most: the repo's own tree is clean under
``--strict``."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api.results import LintResult
from repro.errors import LintError
from repro.lint import LintReport, analyze_paths, analyze_source
from repro.lint.analyzer import discover_files, select_rules, suppressed_lines
from repro.lint.findings import Finding
from repro.lint.report import render_rules

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


class TestDiscovery:
    def test_fixture_corpus_is_excluded_from_directory_walks(self):
        files = discover_files([REPO_ROOT / "tests"])
        assert files
        assert not any("lint_fixtures" in str(path) for path in files)

    def test_explicitly_named_fixture_is_always_included(self):
        files = discover_files([FIXTURES / "rl006_bad.py"])
        assert len(files) == 1

    def test_paths_are_deduplicated_and_sorted(self):
        target = FIXTURES / "rl006_bad.py"
        files = discover_files([target, target, FIXTURES / "rl001_bad.py"])
        assert files == tuple(sorted(set(files)))
        assert len(files) == 2

    def test_missing_path_is_an_error_not_a_clean_run(self):
        with pytest.raises(LintError, match="does not exist"):
            discover_files([REPO_ROOT / "no" / "such" / "dir"])


class TestRuleSelection:
    def test_unknown_rule_id_raises(self):
        with pytest.raises(LintError, match="unknown rule id"):
            select_rules(["RL999"])

    def test_default_selection_is_the_full_registry_in_order(self):
        rules = select_rules()
        assert [rule.rule_id for rule in rules] == sorted(
            rule.rule_id for rule in rules
        )
        assert len(rules) == 6


class TestSuppression:
    def test_inline_and_comment_above_pragmas_suppress(self):
        report = analyze_paths([FIXTURES / "suppressed.py"], select=["RL006"])
        assert report.suppressed == 2
        # Only the wrong-rule pragma line stays flagged.
        assert len(report.findings) == 1

    def test_pragma_for_a_different_rule_does_not_suppress(self):
        report = analyze_paths([FIXTURES / "suppressed.py"])
        assert report.suppressed == 2
        assert [f.rule_id for f in report.findings] == ["RL006"]
        # The wrong-rule pragma line is the one that stays flagged.
        assert "allow[RL001]" in (FIXTURES / "suppressed.py").read_text().splitlines()[
            report.findings[0].line - 1
        ]

    def test_comment_pragma_maps_past_consecutive_comment_lines(self):
        source = (
            "# repro: allow[RL006] reason line one\n"
            "# reason line two\n"
            "import random\n"
            "x = random.random()\n"
        )
        assert suppressed_lines(source) == {3: {"RL006"}}

    def test_multi_rule_pragma(self):
        source = "x = 1  # repro: allow[RL001, RL005]\n"
        assert suppressed_lines(source) == {1: {"RL001", "RL005"}}


class TestAnalyzeSource:
    def test_syntax_error_raises_lint_error(self):
        with pytest.raises(LintError, match="cannot parse"):
            analyze_source("def broken(:\n", "broken.py")

    def test_findings_are_sorted(self):
        source = (FIXTURES / "rl006_bad.py").read_text()
        findings, _ = analyze_source(source, "rl006_bad.py")
        assert list(findings) == sorted(findings)


class TestLintReport:
    def _report(self, severity: str) -> LintReport:
        finding = Finding(
            path="x.py", line=1, col=0, rule_id="RL005", severity=severity, message="m"
        )
        return LintReport(findings=(finding,), files_scanned=1, suppressed=0)

    def test_warning_only_report_is_clean_unless_strict(self):
        report = self._report("warning")
        assert report.clean()
        assert not report.clean(strict=True)
        assert report.n_warnings == 1 and report.n_errors == 0

    def test_error_report_is_never_clean(self):
        report = self._report("error")
        assert not report.clean()
        assert not report.clean(strict=True)

    def test_describe_has_verdict_line(self):
        text = LintResult.from_report(self._report("error"), strict=True).describe()
        assert "x.py:1:0: RL005 [error] m" in text
        assert "FAILED (strict): 1 finding(s)" in text

    def test_render_rules_lists_the_registry(self):
        text = render_rules()
        for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006"):
            assert rule_id in text


class TestSelfRun:
    """The repo's own tree must satisfy the invariants it mechanizes."""

    def test_src_is_clean_in_strict_mode(self):
        report = analyze_paths([REPO_ROOT / "src"])
        assert report.clean(strict=True), [f.format() for f in report.findings]
        assert report.files_scanned > 50

    def test_tests_are_clean_in_strict_mode(self):
        report = analyze_paths([REPO_ROOT / "tests"])
        assert report.clean(strict=True), [f.format() for f in report.findings]

    def test_no_rl001_suppressions_in_src(self):
        """The id-keyed caches were fixed, not waived: zero RL001 pragmas."""
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            for line_rules in suppressed_lines(path.read_text()).values():
                assert "RL001" not in line_rules, path
