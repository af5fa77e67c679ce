"""Memory diagnosis & repair: the detect → diagnose → repair loop.

BRAINS detects memory faults; this package turns detection into yield.
A March run in diagnosis mode emits a row×column :class:`FailBitmap`,
must-repair analysis plus a registered allocation solver (``exact``
branch-and-bound or the ``greedy`` essential-spare-pivoting heuristic)
maps it onto the spare rows/columns in the memory's
:class:`repro.soc.RedundancySpec`, the BISR area model prices the fuse
registers and comparators, and the Monte-Carlo engine scores repair
rate and effective yield over sampled chip populations.
"""

from repro.repair.allocate import (
    MustRepairResult,
    RepairSolution,
    must_repair,
    solve_exact,
    solve_greedy,
)
from repro.repair.analysis import (
    AnalyzeRepair,
    MemoryRepairInfo,
    RepairAnalysis,
    analyze_soc_repair,
)
from repro.repair.bitmap import FailBitmap
from repro.repair.montecarlo import (
    Defect,
    DefectModel,
    RepairRateResult,
    defect_bitmap,
    diagnose_defects,
    estimate_repair_rate,
    sample_defects,
)
from repro.repair.redundancy import (
    DEFAULT_REDUNDANCY,
    bisr_gates,
    diagnosis_geometry,
)
from repro.repair.registry import (
    available_allocators,
    get_allocator,
    register_allocator,
    resolve_allocation,
)
from repro.repair.service import (
    REPAIR_REPORT_SCHEMA,
    render_repair_report,
    repair_report,
)

__all__ = [
    "AnalyzeRepair",
    "DEFAULT_REDUNDANCY",
    "REPAIR_REPORT_SCHEMA",
    "Defect",
    "DefectModel",
    "FailBitmap",
    "MemoryRepairInfo",
    "MustRepairResult",
    "RepairAnalysis",
    "RepairRateResult",
    "RepairSolution",
    "analyze_soc_repair",
    "available_allocators",
    "bisr_gates",
    "defect_bitmap",
    "diagnose_defects",
    "diagnosis_geometry",
    "estimate_repair_rate",
    "get_allocator",
    "must_repair",
    "register_allocator",
    "render_repair_report",
    "repair_report",
    "resolve_allocation",
    "sample_defects",
    "solve_exact",
    "solve_greedy",
]
