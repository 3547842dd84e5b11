"""Rendering of lint reports: the CLI's ``table`` and ``json`` formats.

Mirrors the conventions of the experiment CLI renderers: the table format
is aligned fixed-width text for humans, the JSON format is an
indent-2 document with a stable schema (guarded by the test suite) for
tooling.
"""

from __future__ import annotations

import json

from repro.analysis.driver import LintReport


def render_json(report: LintReport) -> str:
    """The report as a stable-schema JSON document."""
    return json.dumps(report.to_dict(), indent=2)


def render_table(report: LintReport) -> str:
    """The report as human-readable diagnostic lines plus a summary.

    One ``path:line: RULE message`` line per actionable finding, then a
    final summary line the CI log always shows.
    """
    lines = [
        f"{finding.location()}: {finding.rule_id} {finding.message}"
        for finding in report.findings
    ]
    summary = (
        f"{len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed inline"
    )
    if report.clean:
        summary = "clean: " + summary
    lines.append(summary)
    return "\n".join(lines)
