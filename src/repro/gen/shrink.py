"""Greedy failure shrinking: reduce a violating SOC to a minimal repro.

A fuzz campaign over 10^5+ generated chips surfaces violations on chips
with dozens of cores and memories; almost none of that structure is
needed to reproduce the bug.  :func:`shrink_soc` greedily removes chip
elements — whole cores, whole memories, secondary tests, individual
scan chains — re-checking the violation after every cut and keeping
only cuts that preserve it, then canonicalizes the survivors (glue
gates to zero, power budget to unconstrained, pin budget to the
feasibility floor, name to ``"repro"``) so the same underlying defect
found on different seeds shrinks to the same chip whenever the
structure allows.  The digest of the minimized chip is the third leg of
the campaign's dedupe key ``(rule, strategy, minimized-chip digest)``.

Every accepted cut is recorded as a JSON-native *op*
(``{"op": "drop_core", "name": "c3"}``, ...), so a repro is replayed
bit-identically from ``(profile, seed)`` coordinates plus the op list
alone — :func:`apply_ops` is the deterministic inverse the campaign's
``.soc`` repro files embed (see :mod:`repro.gen.campaign`).

The shrinker is deliberately *signature-driven*: a candidate cut counts
as "still failing" only when the **same** violation signature —
``(strategy, kind, rule)`` where kind is ``verify`` / ``infeasible`` /
``crashed`` / ``roundtrip`` — reproduces on the cut chip.  A cut that
flips the failure into a different rule (or into a crash somewhere
else) is rejected, so minimality statements stay about the original
finding.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

from repro.soc.soc import Soc

#: Canonical name every minimized chip is renamed to, so structurally
#: equal repros from different seeds share one digest.
CANONICAL_NAME = "repro"

#: Violation kinds a signature can carry (mirrors what
#: :func:`repro.gen.fuzzing.fuzz_scenario` records per strategy).
SIGNATURE_KINDS = ("verify", "infeasible", "crashed", "roundtrip")


@dataclass(frozen=True)
class ViolationSignature:
    """The identity of one finding, independent of the chip it hit.

    Attributes:
        strategy: the scheduling strategy that misbehaved (the literal
            ``"roundtrip"`` for writer/parser mismatches, which involve
            no scheduler).
        kind: ``verify`` (an invariant rule fired), ``infeasible``,
            ``crashed`` (the exception type name rides in ``rule``), or
            ``roundtrip``.
        rule: the verify rule id, the crashing exception type name, or
            ``""`` where the kind needs no qualifier.
    """

    strategy: str
    kind: str
    rule: str = ""

    def __post_init__(self) -> None:
        if self.kind not in SIGNATURE_KINDS:
            raise ValueError(f"unknown signature kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {"strategy": self.strategy, "kind": self.kind, "rule": self.rule}

    @classmethod
    def from_dict(cls, doc: dict) -> "ViolationSignature":
        return cls(strategy=doc["strategy"], kind=doc["kind"], rule=doc["rule"])

    def describe(self) -> str:
        tail = f":{self.rule}" if self.rule else ""
        return f"{self.strategy}/{self.kind}{tail}"


def scenario_signatures(doc: dict) -> list[ViolationSignature]:
    """Every *error*-severity signature in one fuzz scenario document
    (``repro/fuzz-report/v2`` shape), in document order without
    duplicates — the campaign shrinks each exactly once per scenario."""
    out: list[ViolationSignature] = []
    seen: set[ViolationSignature] = set()

    def add(sig: ViolationSignature) -> None:
        if sig not in seen:
            seen.add(sig)
            out.append(sig)

    if doc.get("roundtrip_errors"):
        add(ViolationSignature("roundtrip", "roundtrip"))
    for strategy, cell in doc.get("strategies", {}).items():
        if "infeasible" in cell:
            add(ViolationSignature(strategy, "infeasible"))
        if "crashed" in cell:
            exc_type = str(cell["crashed"]).split(":", 1)[0]
            add(ViolationSignature(strategy, "crashed", exc_type))
        for violation in cell.get("errors", []):
            add(ViolationSignature(strategy, "verify", violation["rule"]))
    return out


def signature_fires(soc: Soc, sig: ViolationSignature, ilp_max_tasks: int) -> bool:
    """Does ``sig`` reproduce on ``soc``?

    Runs exactly the slice of the fuzz scenario the signature needs: the
    round-trip check alone, or compile plus fuzz's own
    :func:`repro.gen.fuzzing.strategy_cell` for the one strategy, read
    back through :func:`scenario_signatures`.  Any *other* failure — a
    different rule, a crash during compile, an exception from a
    malformed mutant — is "does not fire": the shrinker must never trade
    one bug for another.
    """
    try:
        if sig.kind == "roundtrip":
            from repro.gen.writer import roundtrip_errors

            return bool(roundtrip_errors(soc))

        from repro.core import CompileBist, FlowContext, SteacConfig
        from repro.gen.fuzzing import strategy_cell

        ctx = FlowContext(soc=soc, config=SteacConfig(compare_strategies=False))
        CompileBist().run(ctx)
        cell, _ = strategy_cell(soc, ctx.tasks, sig.strategy, ilp_max_tasks)
        return sig in scenario_signatures({"strategies": {sig.strategy: cell}})
    except Exception:
        # the mutant broke something upstream of the signature (task
        # compilation, verification itself): not a reproduction
        return False


# -- replayable mutation ops -------------------------------------------------


def apply_op(soc: Soc, op: dict) -> None:
    """Apply one recorded shrink op to ``soc`` in place."""
    kind = op["op"]
    if kind == "drop_core":
        soc.cores[:] = [c for c in soc.cores if c.name != op["name"]]
    elif kind == "drop_memory":
        soc.memories[:] = [m for m in soc.memories if m.name != op["name"]]
    elif kind == "drop_test":
        core = soc.core(op["core"])
        core.tests[:] = [t for t in core.tests if t.name != op["name"]]
    elif kind == "drop_chain":
        core = soc.core(op["core"])
        core.scan_chains[:] = [c for c in core.scan_chains if c.name != op["name"]]
    elif kind == "set":
        field = op["field"]
        if field not in ("gate_count", "power_budget", "test_pins"):
            raise ValueError(f"unknown shrink-op field {field!r}")
        setattr(soc, field, op["value"])
    elif kind == "rename":
        soc.name = op["value"]
    else:
        raise ValueError(f"unknown shrink op {kind!r}")


def apply_ops(soc: Soc, ops: list[dict]) -> Soc:
    """Apply a recorded op list to (a deep copy of) ``soc``, returning
    the mutated copy — the replay half of a campaign repro file."""
    out = copy.deepcopy(soc)
    for op in ops:
        apply_op(out, op)
    return out


# -- the greedy reducer ------------------------------------------------------


def _candidate_ops(soc: Soc) -> list[dict]:
    """Every single-element cut available on ``soc``, in a fixed order
    (cores, memories, secondary tests, chains) so shrinking is
    deterministic."""
    ops: list[dict] = []
    for core in soc.cores:
        ops.append({"op": "drop_core", "name": core.name})
    for memory in soc.memories:
        ops.append({"op": "drop_memory", "name": memory.name})
    for core in soc.cores:
        for test in core.tests[1:]:
            ops.append({"op": "drop_test", "core": core.name, "name": test.name})
    for core in soc.cores:
        if len(core.scan_chains) > 1:
            for chain in core.scan_chains:
                ops.append(
                    {"op": "drop_chain", "core": core.name, "name": chain.name}
                )
    return ops


def _canonical_ops(soc: Soc) -> list[dict]:
    """Scalar canonicalization attempts, tried once each after the cut
    loop converges: zero glue gates, unconstrained power, the pin floor,
    the canonical name."""
    from repro.gen.generator import SocGenerator

    ops: list[dict] = []
    if soc.gate_count != 0:
        ops.append({"op": "set", "field": "gate_count", "value": 0})
    if soc.power_budget != 0.0:
        ops.append({"op": "set", "field": "power_budget", "value": 0.0})
    try:
        floor = SocGenerator._feasible_pins(soc)
    except Exception:
        floor = None
    if floor is not None and floor != soc.test_pins:
        ops.append({"op": "set", "field": "test_pins", "value": floor})
    if soc.name != CANONICAL_NAME:
        ops.append({"op": "rename", "value": CANONICAL_NAME})
    return ops


def shrink_soc(
    soc: Soc,
    still_fails: Callable[[Soc], bool],
    max_checks: int = 2000,
) -> tuple[Soc, list[dict]]:
    """Greedily 1-minimize ``soc`` under the predicate ``still_fails``.

    Repeats passes over every available single-element cut, keeping a
    cut whenever the predicate still holds on the cut chip, until a full
    pass accepts nothing (so removing any one remaining element
    un-reproduces the failure — 1-minimality); then applies the scalar
    canonicalization ops under the same predicate.  Returns the
    minimized chip and the accepted op list (replayable with
    :func:`apply_ops`).  ``max_checks`` caps predicate evaluations so a
    pathological chip cannot stall a campaign; the partially shrunk chip
    is still valid when the cap trips.

    Raises:
        ValueError: the predicate does not hold on the input chip (the
            caller is shrinking a non-failure).
    """
    current = copy.deepcopy(soc)
    if not still_fails(current):
        raise ValueError(
            f"shrink_soc: predicate does not fail on the input chip {soc.name!r}"
        )
    accepted: list[dict] = []
    checks = 0

    def try_op(op: dict) -> bool:
        nonlocal current, checks
        if checks >= max_checks:
            return False
        candidate = copy.deepcopy(current)
        try:
            apply_op(candidate, op)
        except KeyError:
            # the op's target rode out on an earlier accepted cut this
            # pass (a drop_test/drop_chain whose core was just dropped)
            return False
        checks += 1
        if still_fails(candidate):
            current = candidate
            accepted.append(op)
            return True
        return False

    progress = True
    while progress and checks < max_checks:
        progress = False
        for op in _candidate_ops(current):
            if try_op(op):
                progress = True
    for op in _canonical_ops(current):
        try_op(op)
    return current, accepted


def shrink_scenario(
    soc: Soc, sig: ViolationSignature, ilp_max_tasks: int, max_checks: int = 2000
) -> tuple[Soc, list[dict]]:
    """Shrink ``soc`` against one violation signature — the campaign's
    entry point.  Returns ``(minimized chip, replay ops)``."""
    return shrink_soc(
        soc,
        lambda mutant: signature_fires(mutant, sig, ilp_max_tasks),
        max_checks=max_checks,
    )
