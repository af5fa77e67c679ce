"""SOC data model: cores, ports, scan chains, memories, and chips.

This package is the vocabulary of the whole platform — the STIL parser
produces :class:`Core` objects, the scheduler consumes them, the wrapper
and BIST generators wrap them.  It also ships the two workloads used by
the experiments: the paper's DSC controller chip (:mod:`repro.soc.dsc`)
and the public ITC'02 d695 benchmark (:mod:`repro.soc.itc02`).
"""

from repro.soc.clocks import ClockDomain
from repro.soc.core import ControlNeeds, Core, CoreType
from repro.soc.digest import canonical_text, soc_digest
from repro.soc.memory import MemorySpec, MemoryType, RedundancySpec
from repro.soc.ports import Direction, Port, PortCounts, SignalKind
from repro.soc.scan import ScanChain, rebalance_lengths, total_flops
from repro.soc.soc import Soc
from repro.soc.tests import CoreTest, TestKind, functional_test, scan_test

__all__ = [
    "ClockDomain",
    "ControlNeeds",
    "Core",
    "CoreType",
    "MemorySpec",
    "MemoryType",
    "RedundancySpec",
    "Direction",
    "Port",
    "PortCounts",
    "SignalKind",
    "ScanChain",
    "rebalance_lengths",
    "total_flops",
    "Soc",
    "CoreTest",
    "TestKind",
    "canonical_text",
    "functional_test",
    "scan_test",
    "soc_digest",
]
