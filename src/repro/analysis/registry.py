"""Lint-rule plugin registry: rules resolve by id.

Rules are held by id in :data:`RULES`, a
:class:`repro.util.registry.Registry`.  The built-in rule families
register at import, and downstream code can plug in its own rule
without touching the engine:

    >>> from repro.analysis.registry import Rule, register_rule
    >>> @register_rule
    ... class NoPrintRule(Rule):
    ...     id = "MISC001"
    ...     severity = "warning"
    ...     description = "no print() in library code"
    ...     def check(self, ctx):
    ...         ...

A rule is one class per check: ``id`` (stable, referenced by
suppressions), ``severity``, an optional ``requires`` contract gate
(the engine only calls :meth:`Rule.check` on files whose
:func:`repro.analysis.contracts.contracts_for` set intersects it), and
a generator of :class:`~repro.analysis.findings.Finding` records.
:class:`ProjectRule` subclasses see the whole tree at once (cross-file
checks like schema fingerprints).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, TypeVar

from repro.analysis.findings import SEVERITIES, Finding
from repro.util.registry import Registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.engine import FileContext


class Rule:
    """One static check, applied per file.

    Attributes:
        id: stable identifier (``DET002``) used in reports and
            ``# detlint: ignore[...]`` suppressions.
        severity: ``error`` (fails ``repro lint``) or ``warning``.
        requires: contract names gating the rule — the engine runs it
            only on files carrying at least one of them; ``None`` runs
            it on every file.
        description: one-line summary for ``repro lint --rules``.
    """

    id: str = ""
    severity: str = "error"
    requires: Optional[frozenset[str]] = None
    description: str = ""

    def check(self, ctx: "FileContext") -> Iterable[Finding]:
        """Yield findings for one file (default: none)."""
        return ()

    def finding(
        self,
        ctx: "FileContext",
        line: int,
        message: str,
        hint: Optional[str] = None,
    ) -> Finding:
        """A :class:`Finding` of this rule at ``ctx``'s path."""
        return Finding(
            path=ctx.relpath,
            line=line,
            rule=self.id,
            severity=self.severity,
            message=message,
            hint=hint,
        )


class ProjectRule(Rule):
    """A rule that needs the whole tree at once (cross-file state)."""

    #: Set per-run by the engine: rewrite committed state (the schema
    #: fingerprint file) from the tree instead of diffing against it.
    update_fingerprints: bool = False

    def check_project(
        self, ctxs: "list[FileContext]", root: str
    ) -> Iterable[Finding]:
        """Yield findings across ``ctxs`` (default: none)."""
        return ()


RULES: Registry[Rule] = Registry("lint rule")

_R = TypeVar("_R", bound="type[Rule]")


def register_rule(cls: _R) -> _R:
    """Class decorator: instantiate and register the rule by its id.

    Re-registering an id replaces the previous entry (last one wins),
    so tests and plugins can shadow a built-in.
    """
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.severity not in SEVERITIES:
        raise ValueError(
            f"rule {rule.id} severity {rule.severity!r} not in {SEVERITIES}"
        )
    RULES.register(rule.id, rule)
    return cls


def get_rule(rule_id: str) -> Rule:
    """Look up a rule by id (``ValueError`` listing the available ones
    for an unknown id)."""
    _load_builtin_rules()
    return RULES.lookup(rule_id)


def available_rules() -> list[str]:
    """Registered rule ids, sorted."""
    _load_builtin_rules()
    return RULES.names()


def all_rules() -> list[Rule]:
    """Every registered rule, in id order."""
    _load_builtin_rules()
    return [RULES[rule_id] for rule_id in RULES.names()]


def _load_builtin_rules() -> None:
    """Import the built-in rule families (registration side effect)."""
    from repro.analysis import rules  # noqa: F401  — import registers
