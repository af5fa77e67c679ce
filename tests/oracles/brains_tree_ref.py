"""Reference BRAINS reduction tree: the BIST controller's builder, retained.

BRAINS used to build its AND/OR reductions (sequencer minterms and
output ORs, the TPG terminal-count detector, the controller's group
decode and fail summary) with four private copies of this loop.  They
now all call :func:`repro.netlist.netlist.add_tree`, the tree builder
of every generator.  The controller's copy is kept as the oracle for
``tests/test_brains_tree.py``: it walks each level left to right,
taking pairs and a triple for the last three nets of an odd level, so
its grouping is easy to audit.  The controller's copy never saw an
empty list; the sequencer's OR copy tied an empty reduction low, and
that one case is folded in so this body stands for all four.  Do not
optimize it; its value is being the original.
"""

from __future__ import annotations

from repro.netlist import Module


def tree_reference(m: Module, nets: list[str], out: str, kind: str, prefix: str) -> None:
    """Reduce ``nets`` into ``out`` with a ``kind`` ("AND" or "OR") tree
    of 2- and 3-input gates; a single net is buffered, no nets tie
    ``out`` low."""
    cell2, cell3 = (("AND2", "AND3") if kind == "AND" else ("OR2", "OR3"))
    if not nets:
        m.add_instance(f"{prefix}_tie", "TIE0", Y=out)
        return
    if len(nets) == 1:
        m.add_instance(f"{prefix}_buf", "BUF", A=nets[0], Y=out)
        return
    current = list(nets)
    level = 0
    while len(current) > 1:
        nxt = []
        i = 0
        while i < len(current):
            group = current[i : i + 3] if len(current) - i == 3 else current[i : i + 2]
            i += len(group)
            if len(group) == 1:
                nxt.append(group[0])
                continue
            final = i >= len(current) and not nxt
            y = out if final else m.add_net(f"{prefix}_t{level}_{len(nxt)}")
            m.add_instance(
                f"{prefix}_g{level}_{len(nxt)}",
                cell3 if len(group) == 3 else cell2,
                Y=y,
                **dict(zip("ABC", group)),
            )
            nxt.append(y)
        current = nxt
        level += 1
