"""``repro.lint`` — the AST-based invariant analyzer.

Every accuracy and throughput claim this reproduction makes rests on
bit-exact parity pins: fit row order, summation order, cache invalidation,
seeded randomness.  Those invariants used to live only in reviewers'
heads; this package mechanizes them as a static-analysis pass that CI runs
in ``--strict`` mode (``repro lint --strict src tests``).

* :mod:`repro.lint.rules` — the rule registry (RL001–RL006), each rule
  one AST check over one module;
* :mod:`repro.lint.analyzer` — discovery, dispatch, and ``# repro:
  allow[RLxxx]`` suppression handling;
* :mod:`repro.lint.findings` — the :class:`Finding` value object;
* :mod:`repro.lint.report` — the rule registry's text (``--list-rules``).

Run it programmatically::

    from repro.lint import analyze_paths

    report = analyze_paths(["src"])
    assert report.clean(strict=True), report.findings

or through the service layer / CLI (``repro lint``), which wraps the
report in the typed :class:`~repro.api.results.LintResult`.
"""

from repro.lint.analyzer import (
    EXCLUDED_DIR_NAMES,
    LintReport,
    analyze_paths,
    analyze_source,
    discover_files,
    select_rules,
    suppressed_lines,
)
from repro.lint.findings import Finding, Severity
from repro.lint.report import render_rules
from repro.lint.rules import RULES, ModuleContext, Rule

__all__ = [
    "EXCLUDED_DIR_NAMES",
    "Finding",
    "LintReport",
    "ModuleContext",
    "RULES",
    "Rule",
    "Severity",
    "analyze_paths",
    "analyze_source",
    "discover_files",
    "render_rules",
    "select_rules",
    "suppressed_lines",
]
