"""Rule-by-rule tests over the fixture corpus in ``tests/lint_fixtures/``.

Each rule is demonstrated twice: a true-positive fixture it must flag, and
a clean-negative fixture it must stay silent on.  The fixtures are excluded
from directory discovery, so they are always named explicitly here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import analyze_paths
from repro.lint.rules import RULES

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def findings_for(fixture: str, rule_id: str):
    """Run one rule over one fixture file; returns the findings tuple."""
    report = analyze_paths([FIXTURES / fixture], select=[rule_id])
    return report.findings


class TestRegistry:
    def test_all_six_rules_registered(self):
        assert sorted(RULES) == [
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
        ]

    def test_rule_metadata_is_complete(self):
        for rule_id, rule in RULES.items():
            assert rule.rule_id == rule_id
            assert rule.title
            assert rule.rationale
            assert rule.severity.value in {"error", "warning"}


@pytest.mark.parametrize(
    "fixture, rule_id",
    [
        ("rl001_bad.py", "RL001"),
        ("rl002_bad.py", "RL002"),
        ("rl003_bad.py", "RL003"),
        ("rl004/powerbudget_bad.py", "RL004"),
        ("rl004/sim/engine_bad.py", "RL004"),
        ("api/rl005_bad.py", "RL005"),
        ("rl006_bad.py", "RL006"),
    ],
)
def test_bad_fixture_fires(fixture, rule_id):
    findings = findings_for(fixture, rule_id)
    assert findings, f"{rule_id} missed its true-positive fixture {fixture}"
    assert all(f.rule_id == rule_id for f in findings)


@pytest.mark.parametrize(
    "fixture, rule_id",
    [
        ("rl001_ok.py", "RL001"),
        ("rl002_ok.py", "RL002"),
        ("rl003_ok.py", "RL003"),
        ("rl004/powerbudget_ok.py", "RL004"),
        ("api/rl005_ok.py", "RL005"),
        ("rl006_ok.py", "RL006"),
    ],
)
def test_ok_fixture_stays_silent(fixture, rule_id):
    findings = findings_for(fixture, rule_id)
    assert not findings, [f.format() for f in findings]


class TestRL001IdKeyedMemos:
    def test_flags_both_store_and_lookup(self):
        findings = findings_for("rl001_bad.py", "RL001")
        assert len(findings) >= 2

    def test_accepts_live_weakref_idioms(self):
        """The repo's three weakref-guarded memos must pass the rule."""
        root = Path(__file__).resolve().parents[1] / "src" / "repro"
        for module in (
            root / "cluster" / "scheduler.py",
            root / "sim" / "engine.py",
            root / "core" / "workflow.py",
        ):
            report = analyze_paths([module], select=["RL001"])
            assert not report.findings, [f.format() for f in report.findings]


class TestRL002SetIteration:
    def test_set_comprehension_from_set_is_exempt(self):
        """A set built from a set stays order-free; only ordered sinks flag."""
        findings = findings_for("rl002_ok.py", "RL002")
        assert not findings


class TestRL004PathScoping:
    def test_rule_is_silent_outside_power_budget_modules(self):
        findings = findings_for("rl004_unscoped.py", "RL004")
        assert not findings

    def test_engine_lockstep_solve_is_in_scope(self):
        assert RULES["RL004"].applies_to("src/repro/sim/engine.py")
        findings = findings_for("rl004/sim/engine_bad.py", "RL004")
        assert len(findings) == 2


class TestRL005Scoping:
    def test_non_frozen_dataclass_outside_api_is_allowed(self):
        findings = findings_for("rl005_outside_api.py", "RL005")
        assert not findings

    def test_api_fixture_flags_both_patterns(self):
        messages = " ".join(
            f.message for f in findings_for("api/rl005_bad.py", "RL005")
        )
        assert "frozen" in messages
        assert "default" in messages


class TestRL006Randomness:
    def test_flags_module_numpy_and_from_import_calls(self):
        findings = findings_for("rl006_bad.py", "RL006")
        assert len(findings) >= 3
