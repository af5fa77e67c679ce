"""CONC — lock-discipline inference for multithreaded classes.

The serve layer mutates shared state from two thread populations at
once: ``JobManager`` worker threads (job transitions, eviction) and
the server's event-loop thread (submit, poll, ``/stats``), plus
whichever thread calls ``ServeServer.stop``.  The convention the
code promises is *attribute-access-under-lock*: any instance attribute
a class writes while holding its ``threading.Lock`` is part of the
lock's protected set, and every other touch of that attribute must
also hold the lock.

``CONC001`` infers that discipline per class, in the same shape as a
lock-discipline race detector:

1. A class owns a lock if ``__init__`` assigns ``self.X =
   threading.Lock()`` (or ``RLock`` / ``Condition``).
2. The *protected set* is every ``self.attr`` assigned (plain, augmented,
   subscript/attr-target, or ``del``) inside a ``with self.X:`` block in
   any non-``__init__`` method.
3. A read or write of a protected attribute outside every ``with
   self.X:`` block is a finding — except in ``__init__`` (no other
   thread can hold a reference yet) and in methods named ``*_locked``
   (the documented called-with-lock-held convention, e.g.
   ``JobManager._finish_locked``).

The rule is deliberately write-seeded: attributes only ever *read*
under the lock (or never touched under it) are not claimed, keeping
immutable-after-init config fields out of scope.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.analysis.engine import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register_rule

_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition"})


def _lock_attrs(cls: ast.ClassDef) -> frozenset[str]:
    """Attributes ``__init__`` binds to a ``threading.Lock()``-like."""
    out: set[str] = set()
    for stmt in cls.body:
        if not (isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"):
            continue
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            factory: Optional[str] = None
            if isinstance(value, ast.Call):
                func = value.func
                if isinstance(func, ast.Name):
                    factory = func.id
                elif isinstance(func, ast.Attribute):
                    factory = func.attr
            if factory not in _LOCK_FACTORIES:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    out.add(target.attr)
    return frozenset(out)


@dataclass(frozen=True)
class _Access:
    """One ``self.attr`` touch inside a method."""

    attr: str
    line: int
    write: bool
    under_lock: bool
    method: str


def _is_self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _assign_target_attr(node: ast.AST) -> Optional[str]:
    """``self.attr`` written through a subscript/attribute target:
    ``self.jobs[k] = v`` and ``del self.jobs[k]`` mutate ``self.jobs``."""
    if isinstance(node, ast.Subscript):
        return _is_self_attr(node.value)
    return _is_self_attr(node)


def _holds_lock(with_node: ast.With, locks: frozenset[str]) -> bool:
    for item in with_node.items:
        attr = _is_self_attr(item.context_expr)
        if attr in locks:
            return True
    return False


def _collect(
    node: ast.AST,
    locks: frozenset[str],
    method: str,
    under_lock: bool,
    out: list[_Access],
) -> None:
    """Walk one method body tracking the with-lock nesting."""
    if isinstance(node, ast.With) and _holds_lock(node, locks):
        under_lock = True
    # mutation targets first (the Attribute itself has Load ctx when the
    # store goes through a subscript)
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AugAssign)
            else node.targets
        )
        for target in targets:
            attr = _assign_target_attr(target)
            if attr is not None:
                out.append(_Access(attr, target.lineno, True, under_lock, method))
    if isinstance(node, ast.Attribute):
        attr = _is_self_attr(node)
        if attr is not None:
            out.append(_Access(
                attr, node.lineno,
                not isinstance(node.ctx, ast.Load), under_lock, method,
            ))
    # do not descend into nested defs/classes: their bodies run later,
    # on whichever thread calls them, with their own discipline
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        _collect(child, locks, method, under_lock, out)


@register_rule
class LockDisciplineRule(Rule):
    id = "CONC001"
    severity = "error"
    requires = None  # any class owning a lock promises discipline
    description = (
        "attributes written under `with self._lock` must always be "
        "touched under it (outside __init__ / *_locked helpers)"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            locks = _lock_attrs(cls)
            if not locks:
                continue
            accesses: list[_Access] = []
            for stmt in cls.body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for body_stmt in stmt.body:
                    _collect(body_stmt, locks, stmt.name, False, accesses)
            protected = {
                access.attr
                for access in accesses
                if access.write and access.under_lock
                and access.method != "__init__"
            } - locks
            if not protected:
                continue
            seen: set[tuple[str, int]] = set()
            for access in accesses:
                if access.attr not in protected or access.under_lock:
                    continue
                if access.method == "__init__" or access.method.endswith("_locked"):
                    continue
                key = (access.attr, access.line)
                if key in seen:
                    continue
                seen.add(key)
                kind = "written" if access.write else "read"
                yield self.finding(
                    ctx, access.line,
                    f"{cls.name}.{access.attr} is lock-protected (written "
                    f"under `with self.{sorted(locks)[0]}`) but {kind} here "
                    "without the lock",
                    hint=(
                        "wrap the access in the lock, or move it into a "
                        "*_locked helper documented as called with the lock "
                        "held"
                    ),
                )
