"""BRAINS: the memory built-in self-test compiler (paper Fig. 2, Fig. 4).

March algorithms and notation, behavioral memory + fault models, March
fault simulation (coverage evaluation), BIST hardware generation (shared
controller, sequencers, per-memory TPGs), and power-aware BIST
scheduling that plugs into the Core Test Scheduler.
"""

from repro.bist.backgrounds import standard_backgrounds, word_march_cycles
from repro.bist.compiler import BistEngine, BistRunResult, Brains, BrainsConfig
from repro.bist.controller import make_bist_controller
from repro.bist.faults import (
    FAULT_CLASSES,
    AddressAliasFault,
    AddressNoAccessFault,
    DataRetentionFault,
    FaultModel,
    IdempotentCouplingFault,
    InversionCouplingFault,
    StateCouplingFault,
    StuckAtFault,
    StuckOpenFault,
    TransitionFault,
    classify,
    fault_population,
)
from repro.bist.faultsim import (
    CoverageResult,
    coverage_table,
    detects,
    diagnose_march,
    run_march,
    simulate_coverage,
)
from repro.bist.march import (
    ALGORITHMS,
    MARCH_A,
    MARCH_B,
    MARCH_C,
    MARCH_C_MINUS,
    MARCH_SS,
    MARCH_X,
    MARCH_Y,
    MATS,
    MATS_PLUS,
    MATS_PP,
    MarchElement,
    MarchTest,
    Op,
    Order,
    algorithm,
    parse_march,
    with_retention,
)
from repro.bist.memory_model import CompositeFault, FaultFreeMemory, FaultyMemory, MemoryState
from repro.bist.scheduling import BistGroup, BistPlan, plan_bist
from repro.bist.sequencer import MicroOp, make_sequencer, microcode
from repro.bist.tpg import TpgRunResult, make_tpg, march_cycles, run_tpg

__all__ = [
    "standard_backgrounds",
    "word_march_cycles",
    "BistEngine",
    "BistRunResult",
    "Brains",
    "BrainsConfig",
    "make_bist_controller",
    "FAULT_CLASSES",
    "AddressAliasFault",
    "AddressNoAccessFault",
    "DataRetentionFault",
    "FaultModel",
    "IdempotentCouplingFault",
    "InversionCouplingFault",
    "StateCouplingFault",
    "StuckAtFault",
    "StuckOpenFault",
    "TransitionFault",
    "classify",
    "fault_population",
    "CompositeFault",
    "CoverageResult",
    "coverage_table",
    "detects",
    "diagnose_march",
    "run_march",
    "simulate_coverage",
    "ALGORITHMS",
    "MARCH_A",
    "MARCH_B",
    "MARCH_C",
    "MARCH_C_MINUS",
    "MARCH_SS",
    "MARCH_X",
    "MARCH_Y",
    "MATS",
    "MATS_PLUS",
    "MATS_PP",
    "MarchElement",
    "MarchTest",
    "Op",
    "Order",
    "algorithm",
    "parse_march",
    "with_retention",
    "FaultFreeMemory",
    "FaultyMemory",
    "MemoryState",
    "BistGroup",
    "BistPlan",
    "plan_bist",
    "MicroOp",
    "make_sequencer",
    "microcode",
    "TpgRunResult",
    "make_tpg",
    "march_cycles",
    "run_tpg",
]
