"""Input validation helpers shared by the data-model constructors."""

from __future__ import annotations

import math
import re

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_\[\].$]*$")


# Each check is one chained comparison, false for NaN (``nan <= 0`` is
# false too) and for ±inf: model constructors call them thousands of
# times per generated chip, so only a refusal works out which rule failed.
_INF = math.inf


def _refuse(value: int | float, what: str, rule: str) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        rule = "finite"
    raise ValueError(f"{what} must be {rule}, got {value!r}")


def check_positive(value: int | float, what: str) -> None:
    """Raise :class:`ValueError` unless ``value`` is finite and strictly positive."""
    if not 0 < value < _INF:
        _refuse(value, what, "positive")


def check_non_negative(value: int | float, what: str) -> None:
    """Raise :class:`ValueError` unless ``value`` is finite and >= 0."""
    if not 0 <= value < _INF:
        _refuse(value, what, "non-negative")


def check_name(name: str, what: str = "name") -> str:
    """Validate an HDL-ish identifier and return it.

    Identifiers may contain word characters plus ``[ ] . $`` after the first
    character (bus bits like ``data[3]`` and hierarchical names like
    ``u_top.u_core`` are accepted).
    """
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(f"invalid {what}: {name!r}")
    return name
