"""The Core Test Scheduler: session-based scheduling under test-IO and
power constraints, the non-session baseline, an exact MILP, and the
supporting test-time / IO-sharing / rebalancing models.

All strategies resolve by name through :mod:`repro.sched.registry`
(``session`` / ``nonsession`` / ``serial`` / ``ilp``); use
:func:`register_scheduler` to plug in new ones."""

from repro.sched.bounds import (
    forced_session_floor,
    schedule_lower_bound,
    session_schedule_floor,
    task_floor_time,
    task_width_cap,
    task_wire_cycles_floor,
)
from repro.sched.ioalloc import (
    BIST_PORT_PINS,
    SharingPolicy,
    control_pin_count,
    control_pins,
    io_sharing_report,
)
from repro.sched.nonsession import schedule_nonsession
from repro.sched.power import PowerTimeline, fits_power_budget, session_power
from repro.sched.registry import (
    available_strategies,
    get_scheduler,
    register_scheduler,
    resolve_schedule,
)
from repro.sched.rebalance import RebalanceAdvice, rebalance_advice, rebalance_report
from repro.sched.result import ScheduledTest, ScheduleResult, Session, TestTask
from repro.sched.session import (
    InfeasibleScheduleError,
    assign_widths,
    build_session,
    schedule_serial,
    schedule_sessions,
)
from repro.sched.tasks import scan_max_width, tasks_from_core, tasks_from_soc
from repro.sched.timecalc import (
    FUNCTIONAL_SETUP_CYCLES,
    SESSION_RECONFIG_CYCLES,
    WIR_PROGRAM_CYCLES,
    ScanTimeModel,
    clear_scan_time_cache,
    functional_test_time,
    scan_test_time,
    scan_time_cache_stats,
)

__all__ = [
    "BIST_PORT_PINS",
    "forced_session_floor",
    "schedule_lower_bound",
    "session_schedule_floor",
    "task_floor_time",
    "task_width_cap",
    "task_wire_cycles_floor",
    "SharingPolicy",
    "control_pin_count",
    "control_pins",
    "io_sharing_report",
    "schedule_nonsession",
    "available_strategies",
    "get_scheduler",
    "register_scheduler",
    "resolve_schedule",
    "PowerTimeline",
    "fits_power_budget",
    "session_power",
    "RebalanceAdvice",
    "rebalance_advice",
    "rebalance_report",
    "ScheduledTest",
    "ScheduleResult",
    "Session",
    "TestTask",
    "InfeasibleScheduleError",
    "assign_widths",
    "build_session",
    "schedule_serial",
    "schedule_sessions",
    "scan_max_width",
    "tasks_from_core",
    "tasks_from_soc",
    "ScanTimeModel",
    "clear_scan_time_cache",
    "scan_time_cache_stats",
    "functional_test_time",
    "scan_test_time",
    "FUNCTIONAL_SETUP_CYCLES",
    "SESSION_RECONFIG_CYCLES",
    "WIR_PROGRAM_CYCLES",
]
