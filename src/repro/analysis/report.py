"""Text and JSON reporters over a :class:`~repro.analysis.engine.LintResult`."""

from __future__ import annotations

import json

from repro.analysis.registry import all_rules


def render_text(result) -> str:
    """The human report: one line per finding, then a summary."""
    lines = []
    for finding in result.findings:
        lines.append(finding.render())
        if finding.snippet:
            lines.append("    %s" % finding.snippet)
    summary = result.summary()
    lines.append(
        "%d file(s): %d finding(s), %d suppressed"
        % (summary["files"], summary["findings"], summary["suppressed"])
    )
    return "\n".join(lines)


def render_json(result, indent: int = 2) -> str:
    """The machine report CI consumes: findings and summary in one
    document."""
    payload = {
        "findings": [finding.to_dict() for finding in result.findings],
        "summary": result.summary(),
        "ok": result.ok,
    }
    return json.dumps(payload, indent=indent, sort_keys=True)


def render_rules() -> str:
    """The ``--list-rules`` catalog."""
    lines = []
    for rule in all_rules():
        lines.append("%s  %s" % (rule.rule_id, rule.title))
        if rule.rationale:
            lines.append("         %s" % rule.rationale)
    return "\n".join(lines)
