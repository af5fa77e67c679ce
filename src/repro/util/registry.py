"""One plugin registry: entries of one kind, picked by name.

Scheduling strategies (:data:`repro.sched.registry.STRATEGIES`), repair
allocators (:data:`repro.repair.registry.ALLOCATORS`), generator profiles
(:data:`repro.gen.profiles.PROFILES`) and lint rules
(:data:`repro.analysis.registry.RULES`) are each one :class:`Registry`.
Their public ``register_*`` / ``get_*`` / ``available_*`` functions are
bindings over it, so every unknown name is refused with the same
message shape.
"""

from __future__ import annotations

from typing import Generic, TypeVar

_T = TypeVar("_T")


class Registry(dict[str, _T], Generic[_T]):
    """A ``dict`` from name to entry, with the registry's front door.

    Re-registering a name replaces the previous entry (the last one
    wins), so tests and plugins can shadow a built-in; they remove an
    entry again with ``pop`` like from any ``dict``.
    """

    def __init__(self, kind: str) -> None:
        super().__init__()
        #: What an entry is, as the unknown-name message names it.
        self.kind = kind

    def register(self, name: str, entry: _T) -> _T:
        """Register ``entry`` under ``name`` and return it."""
        self[name] = entry
        return entry

    def lookup(self, name: str) -> _T:
        """The entry registered under ``name`` (one dict index).

        Raises:
            ValueError: unknown name (the message lists what is available).
        """
        try:
            return self[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; "
                f"available: {', '.join(self.names())}"
            ) from None

    def names(self) -> list[str]:
        """Registered names, sorted."""
        return sorted(self)
