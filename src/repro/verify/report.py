"""Structured verification reports.

Every checker in :mod:`repro.verify` appends :class:`Violation` records
to a :class:`VerificationReport` — machine-readable (``to_dict``), human
readable (``render``), and cheap to assert on in tests (``ok``,
``errors``).  A report also remembers which rules *ran*, so "clean"
is distinguishable from "not checked".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util import Table

#: Violation severities: ``error`` breaks an invariant, ``warning`` flags
#: suspicious-but-legal structure (e.g. recorded pin accounting drifting
#: from the recomputed value).
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Violation:
    """One broken (or suspicious) invariant.

    Attributes:
        rule: checker rule id (``"core-mutex"``, ``"power-ceiling"``, ...).
        subject: what the violation is about (task, session, core name).
        message: human-readable description with the observed numbers.
        severity: ``"error"`` or ``"warning"``.
    """

    rule: str
    subject: str
    message: str
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "subject": self.subject,
            "message": self.message,
            "severity": self.severity,
        }


@dataclass
class VerificationReport:
    """Outcome of one verification run over a schedule (or integration)."""

    soc_name: str
    strategy: str = ""
    violations: list[Violation] = field(default_factory=list)
    rules_checked: list[str] = field(default_factory=list)

    def check(self, rule: str) -> None:
        """Record that ``rule`` ran (idempotent)."""
        if rule not in self.rules_checked:
            self.rules_checked.append(rule)

    def add(self, rule: str, subject: str, message: str, severity: str = "error") -> None:
        """Record a violation (and that its rule ran)."""
        self.check(rule)
        self.violations.append(Violation(rule, subject, message, severity))

    @property
    def errors(self) -> list[Violation]:
        return [v for v in self.violations if v.severity == "error"]

    @property
    def warnings(self) -> list[Violation]:
        return [v for v in self.violations if v.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no *error*-severity violation was found."""
        return not self.errors

    def to_dict(self) -> dict:
        """JSON-native report document."""
        return {
            "soc": self.soc_name,
            "strategy": self.strategy,
            "ok": self.ok,
            "rules_checked": list(self.rules_checked),
            "violations": [v.to_dict() for v in self.violations],
        }

    def render(self) -> str:
        """ASCII verification summary."""
        title = f"invariant check: {self.soc_name}"
        if self.strategy:
            title += f" ({self.strategy})"
        if not self.violations:
            return (
                f"{title}: OK — {len(self.rules_checked)} rules clean "
                f"({', '.join(self.rules_checked)})"
            )
        table = Table(["Severity", "Rule", "Subject", "Message"], title=title)
        for violation in self.violations:
            table.add_row(
                [violation.severity, violation.rule, violation.subject, violation.message]
            )
        verdict = "FAIL" if self.errors else "ok (warnings only)"
        return "\n".join(
            [table.render(),
             f"{verdict}: {len(self.errors)} errors, {len(self.warnings)} warnings "
             f"over {len(self.rules_checked)} rules"]
        )
