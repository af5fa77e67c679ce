"""PODEM: path-oriented decision making test generation (Goel 1981).

Dual-machine formulation: the composite circuit value of a net is the
pair (good, faulty); ``D`` = (1,0), ``D̄`` = (0,1).  PODEM assigns only
primary inputs, re-implies by full dual simulation, and backtracks on a
decision stack.  Correctness comes from implication + exhaustive
backtracking; the objective/backtrace heuristics only steer the search.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.atpg.engine import CombEngine
from repro.atpg.faults import StuckFault
from repro.netlist.cells import LIBRARY, X


@dataclass
class PodemResult:
    """Outcome of one PODEM run."""

    fault: StuckFault
    test: dict[str, int] | None  # PI assignment (may be partial), None = no test
    backtracks: int
    aborted: bool = False

    @property
    def testable(self) -> bool:
        return self.test is not None


def podem(engine: CombEngine, fault: StuckFault, max_backtracks: int = 200) -> PodemResult:
    """Generate a test for ``fault`` or prove it untestable (within the
    backtrack budget)."""
    if fault.net not in engine.module.nets:
        raise KeyError(f"no net {fault.net!r} in module {engine.module.name!r}")
    assignment: dict[str, int] = {}
    stack: list[list] = []  # [pi, value, flipped]
    backtracks = 0
    driver_pin: dict[str, tuple] = {}
    for inst in engine.module.instances:
        cell = LIBRARY[inst.ref]
        net = inst.conns.get(cell.output)
        if net is not None:
            driver_pin[net] = (inst, cell)

    while True:
        good = engine.evaluate(assignment)
        faulty = engine.evaluate(assignment, force=(fault.net, fault.value))

        # fault effect observed at a primary output?
        for po in engine.outputs:
            g, f = good.get(po, X), faulty.get(po, X)
            if g != X and f != X and g != f:
                return PodemResult(fault, dict(assignment), backtracks)

        objective = _pick_objective(engine, fault, good, faulty, driver_pin)
        if objective is not None:
            pi, value = _backtrace(engine, objective, good, driver_pin)
            if pi is not None:
                assignment[pi] = value
                stack.append([pi, value, False])
                continue
        # dead end: backtrack
        advanced = False
        while stack:
            top = stack[-1]
            if not top[2]:
                top[2] = True
                top[1] ^= 1
                assignment[top[0]] = top[1]
                advanced = True
                break
            stack.pop()
            del assignment[top[0]]
            backtracks += 1
            if backtracks > max_backtracks:
                return PodemResult(fault, None, backtracks, aborted=True)
        if not advanced and not stack:
            return PodemResult(fault, None, backtracks)


def _pick_objective(engine, fault, good, faulty, driver_pin):
    """Next value objective: excite the fault, then advance the
    D-frontier.  Returns (net, value) or None if hopeless."""
    site_good = good.get(fault.net, X)
    if site_good == X:
        return (fault.net, 1 - fault.value)  # excite
    if site_good == fault.value:
        return None  # conflict: fault cannot be excited under assignment
    # D-frontier: gates with a D input and an X output (composite)
    for inst, cell in engine.order:
        out_net = inst.conns.get(cell.output)
        if out_net is None:
            continue
        g_out, f_out = good.get(out_net, X), faulty.get(out_net, X)
        if not (g_out == X or f_out == X):
            continue
        has_d = False
        x_input = None
        for pin in cell.inputs:
            net = inst.conns.get(pin, "")
            g, f = good.get(net, X), faulty.get(net, X)
            if g != X and f != X and g != f:
                has_d = True
            elif g == X or f == X:
                x_input = net
        if has_d and x_input is not None:
            # drive the X side input to the gate's non-controlling value
            # (XOR/MUX have none: either value propagates; pick 0)
            return (x_input, 0 if cell.controlling is None else 1 - cell.controlling)
    return None


def _backtrace(engine, objective, good, driver_pin):
    """Walk the objective back to an unassigned primary input."""
    net, value = objective
    for _ in range(10_000):
        if net in engine.inputs:
            if good.get(net, X) == X:
                return net, value
            return None, None  # PI already set: unreachable objective
        entry = driver_pin.get(net)
        if entry is None:
            return None, None  # undriven internal net
        inst, cell = entry
        if cell.inverting:
            value ^= 1
        # choose an X-valued input to pursue
        x_net = None
        for pin in cell.inputs:
            candidate = inst.conns.get(pin, "")
            if good.get(candidate, X) == X:
                x_net = candidate
                break
        if x_net is None:
            return None, None
        net = x_net
    return None, None
