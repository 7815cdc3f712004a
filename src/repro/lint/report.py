"""Text rendering of the rule registry (``repro lint --list-rules``).

A run's findings render on the service-layer response type
(:meth:`~repro.api.results.LintResult.describe`) like every other command.
"""

from __future__ import annotations

from repro.lint.rules import RULES


def render_rules() -> str:
    """The registry documentation (``repro lint --list-rules``)."""
    lines = []
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        lines.append(rule.doc)
        lines.append(f"       {rule.rationale}")
    return "\n".join(lines)
