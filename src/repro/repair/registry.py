"""Allocator plugin registry: repair solvers resolve by name.

``exact`` and ``greedy`` ship built in, held in :data:`ALLOCATORS` (a
:class:`repro.util.registry.Registry`), and downstream code can
register its own solver without touching the platform:

    >>> from repro.repair.registry import register_allocator
    >>> @register_allocator("mine")
    ... def solve_mine(bitmap, spares):
    ...     ...

Every allocator shares one calling convention::

    fn(bitmap: FailBitmap, spares: RedundancySpec) -> RepairSolution
"""

from __future__ import annotations

import functools
from typing import Callable, Protocol

from repro.repair.allocate import RepairSolution, solve_exact, solve_greedy
from repro.repair.bitmap import FailBitmap
from repro.soc.memory import RedundancySpec
from repro.util.registry import Registry


class AllocatorFn(Protocol):
    """The uniform allocator entry point."""

    def __call__(self, bitmap: FailBitmap, spares: RedundancySpec) -> RepairSolution: ...


ALLOCATORS: Registry[AllocatorFn] = Registry("repair allocator")

#: Look up an allocator by name (``ValueError`` listing the available
#: ones for an unknown name).
get_allocator = ALLOCATORS.lookup

#: Registered allocator names, sorted.
available_allocators = ALLOCATORS.names


def register_allocator(name: str) -> Callable[[AllocatorFn], AllocatorFn]:
    """Decorator: register ``fn`` as the repair allocator ``name`` (the
    last registration wins, so tests and plugins can shadow a built-in)."""
    return functools.partial(ALLOCATORS.register, name)


def resolve_allocation(
    name: str, bitmap: FailBitmap, spares: RedundancySpec
) -> RepairSolution:
    """Run the named allocator — the one-call front end to the registry."""
    return get_allocator(name)(bitmap, spares)


ALLOCATORS.register("exact", solve_exact)
ALLOCATORS.register("greedy", solve_greedy)
