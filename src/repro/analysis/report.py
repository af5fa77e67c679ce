"""Reporters: the lint report as human text or a versioned JSON document."""

from __future__ import annotations

from repro.analysis.engine import LintReport
from repro.util import document_text

LINT_SCHEMA = "repro/lint-report/v1"


def render_human(report: LintReport) -> str:
    """One finding per line, worst-first, with a trailing summary."""
    lines = [finding.format() for finding in report.findings]
    verdict = "clean" if report.ok else f"{len(report.errors)} error(s)"
    if report.warnings:
        verdict += f", {len(report.warnings)} warning(s)"
    lines.append(
        f"detlint: {report.files} file(s), {verdict}"
        + (f", {report.suppressed} suppressed" if report.suppressed else "")
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """The ``repro/lint-report/v1`` document as :func:`document_text`."""
    doc = {
        "schema": LINT_SCHEMA,
        "ok": report.ok,
        "files": report.files,
        "error_count": len(report.errors),
        "warning_count": len(report.warnings),
        "suppressed": report.suppressed,
        "findings": [finding.to_dict() for finding in report.findings],
    }
    return document_text(doc)
