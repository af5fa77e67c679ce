"""Test Controller: the gate-level session-sequencing FSM.

The generated netlist is the only controller model: the tests step its
gates through a session walk with :class:`repro.netlist.Simulator`, and
integration prices it from :func:`repro.controller.generator.controller_cells`.
"""

from repro.controller.generator import make_test_controller

__all__ = ["make_test_controller"]
