"""The STEAC flow as a composable pipeline (paper Fig. 1, staged).

The platform is a pipeline — STIL Parser → BRAINS → Core Test Scheduler
→ Test Insertion → Pattern Translator — and this module exposes each box
as a first-class :class:`Stage` over a shared :class:`FlowContext`
artifact bag.  ``Steac.integrate()`` runs :func:`default_stages` over
one context and returns it, finished, as the result; callers who need
more control can run a partial flow, replace a stage, or append their
own:

    >>> from repro.core.pipeline import Pipeline, FlowContext, Schedule
    >>> ctx = FlowContext(soc=build_dsc_chip())            # doctest: +SKIP
    >>> Pipeline.default().until("schedule").run(ctx)      # doctest: +SKIP
    >>> ctx.schedule.total_time                            # doctest: +SKIP

Stages mutate the context in place.  Each runs in one
``pipeline.<stage>`` span (:mod:`repro.obs`) whose ``seconds`` is added
to ``ctx.stage_seconds`` and observed in the ``pipeline.stage.seconds``
histogram (and is its record's ``dur`` when tracing is enabled).  A
stage only reads artifacts produced by earlier stages, so any prefix of
the default flow is a valid flow.

Test Insertion prices the DFT from cell counts; the netlist is generated
the first time it is read (:class:`DftDesign`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence

from repro.bist.compiler import BistEngine, Brains, BrainsConfig
from repro.controller.generator import controller_cells
from repro.netlist import Module, Netlist, PortDir
from repro.obs import METRICS, span
from repro.patterns.ate import AteProgram
from repro.patterns.core_patterns import CorePatternSet
from repro.patterns.translate import (
    chip_level_program,
    translate_core_to_wrapper,
    wrapper_functional_program,
    wrapper_scan_program,
)
from repro.sched.registry import resolve_schedule
from repro.sched.result import ScheduleResult, TestTask
from repro.sched.session import InfeasibleScheduleError
from repro.sched.tasks import tasks_from_soc
from repro.soc.ports import SignalKind
from repro.soc.soc import Soc
from repro.stil.semantics import core_from_stil
from repro.tam.bus import TamBus, build_tam
from repro.tam.mux import make_tam_mux, tam_mux_cells
from repro.util import check_name
from repro.wrapper.generator import GeneratedWrapper, generate_wrapper, plan_wrapper

if TYPE_CHECKING:  # pragma: no cover
    from repro.repair.analysis import RepairAnalysis
    from repro.verify.report import VerificationReport

#: Strategies run by ``compare_strategies`` when the config does not name
#: its own set.  The MILP is deliberately absent — it is minutes, not
#: milliseconds, on real chips; opt in via ``SteacConfig.compare_with``.
DEFAULT_COMPARE_STRATEGIES: tuple[str, ...] = ("session", "nonsession", "serial")

_STAGE_SECONDS = METRICS.histogram(
    "pipeline.stage.seconds", "wall time per pipeline stage execution"
)

#: Chip-top nets for the wrapper control ports.
_WRAPPER_CONTROL_NETS = {"wrck": "tck", "selectwir": "n_selectwir", "shiftwr": "n_shift",
                         "capturewr": "n_capture", "updatewr": "n_update",
                         "parallel_sel": "parallel_sel"}


@dataclass
class FlowContext:
    """Everything a flow reads and produces, in dependency order.

    Inputs (caller-set): ``soc``, ``config``, ``stil_texts``,
    ``pattern_data``.  Artifacts (stage-set): everything else but
    ``runtime_seconds`` and ``trace``, which ``Steac.integrate`` sets on
    the finished flow it returns.  The ``soc`` field is re-pointed at a
    shallow working copy by :class:`ParseStil` when STIL input adds or
    replaces cores, so the caller's model is never mutated.  ``tasks``
    stays ``None`` until a stage derives them.  The DFT ``netlist`` and
    its modules are generated on first read (``None`` before InsertDft).
    """

    soc: Soc
    config: "SteacConfig" = None  # type: ignore[assignment]  # default set in __post_init__
    stil_texts: dict[str, str] = field(default_factory=dict)
    pattern_data: dict[str, CorePatternSet] = field(default_factory=dict)

    # -- artifacts, in the order the default flow produces them ----------
    tasks: Optional[list[TestTask]] = None
    bist_engine: Optional[BistEngine] = None
    repair: Optional["RepairAnalysis"] = None
    schedule: Optional[ScheduleResult] = None
    comparison: dict[str, Optional[int]] = field(default_factory=dict)
    wrappers: dict[str, GeneratedWrapper] = field(default_factory=dict)
    tam_bus: Optional[TamBus] = None
    dft: Optional["DftDesign"] = None
    programs: dict[str, AteProgram] = field(default_factory=dict)
    verification: Optional["VerificationReport"] = None
    stage_seconds: dict[str, float] = field(default_factory=dict)
    trace: Optional[dict] = None
    runtime_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.config is None:
            from repro.core.steac import SteacConfig

            self.config = SteacConfig()

    def _built(self, attr: str):
        if self.dft is None:
            return None
        self.dft.build()
        return getattr(self.dft, attr)

    netlist = property(lambda self: self._built("netlist"))
    controller_module = property(lambda self: self._built("controller_module"))
    tam_module = property(lambda self: self._built("tam_module"))

    def require(self, *artifacts: str) -> None:
        """Fail fast when a stage runs before its producers."""
        missing = [a for a in artifacts if getattr(self, a) is None]
        if missing:
            raise MissingArtifactError(
                f"stage needs {', '.join(missing)} — run the producing "
                f"stage(s) first (default order: {[s.name for s in default_stages()]})"
            )


class MissingArtifactError(RuntimeError):
    """A stage ran before the stage that produces its input."""


class Stage:
    """One box of the Fig.-1 flow.

    Subclasses set ``name`` and implement :meth:`execute`; :meth:`run`
    times it in its ``pipeline.<name>`` span.  Stages are cheap,
    stateless-ish objects — construct freely, reuse across SOCs.
    """

    name: str = "stage"

    def execute(self, ctx: FlowContext) -> None:
        raise NotImplementedError

    def run(self, ctx: FlowContext) -> FlowContext:
        with span("pipeline." + self.name, soc=ctx.soc.name) as sp:
            self.execute(ctx)
        ctx.stage_seconds[self.name] = ctx.stage_seconds.get(self.name, 0.0) + sp.seconds
        _STAGE_SECONDS.observe(sp.seconds, stage=self.name)
        return ctx

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class ParseStil(Stage):
    """STIL Parser: digest core test views, extend/replace the SOC's cores.

    Works on a shallow copy of the SOC (fresh ``cores`` list) so the
    caller's model survives integration untouched.  Vectors carried by
    the STIL feed ``ctx.pattern_data`` for the Pattern Translator.
    """

    name = "parse_stil"

    def execute(self, ctx: FlowContext) -> None:
        if not ctx.stil_texts:
            return
        soc = replace(ctx.soc, cores=list(ctx.soc.cores))
        for _name, text in ctx.stil_texts.items():
            extracted = core_from_stil(text)
            replaced = False
            for i, core in enumerate(soc.cores):
                if core.name == extracted.core.name:
                    soc.cores[i] = extracted.core
                    replaced = True
                    break
            if not replaced:
                soc.add_core(extracted.core)
            if extracted.patterns.scan_vectors or extracted.patterns.functional_vectors:
                ctx.pattern_data.setdefault(extracted.core.name, extracted.patterns)
        ctx.soc = soc


class CompileBist(Stage):
    """BRAINS (Fig. 4): compile memory BIST, emit schedulable group tasks.

    Also derives the core-test task list, so a flow starting here always
    has ``ctx.tasks`` (a flow starting at ``schedule`` derives its own).
    """

    name = "compile_bist"

    def execute(self, ctx: FlowContext) -> None:
        config = ctx.config
        soc = ctx.soc
        tasks = tasks_from_soc(soc)
        if soc.memories:
            bist_budget = soc.power_budget
            if config.bist_power_headroom and soc.power_budget > 0 and tasks:
                bist_budget = max(1e-9, soc.power_budget - max(t.power for t in tasks))
            ctx.bist_engine = Brains().compile(
                soc.memories,
                BrainsConfig(march=config.march, power_budget=bist_budget),
            )
            tasks = tasks + ctx.bist_engine.to_tasks()
        ctx.tasks = tasks


class Schedule(Stage):
    """Core Test Scheduler: resolve the configured strategy by name and,
    when ``compare_strategies`` is on, race it against the others."""

    name = "schedule"

    def execute(self, ctx: FlowContext) -> None:
        config = ctx.config
        if ctx.tasks is None:  # a schedule-only flow on a bare SOC
            ctx.tasks = tasks_from_soc(ctx.soc)
        ctx.schedule = self._schedule(ctx, config.strategy)
        if config.compare_strategies:
            compare_with = (
                config.compare_with
                if config.compare_with is not None
                else DEFAULT_COMPARE_STRATEGIES
            )
            for strategy in compare_with:
                if strategy == config.strategy:
                    ctx.comparison[strategy] = ctx.schedule.total_time
                    continue
                try:
                    ctx.comparison[strategy] = self._schedule(ctx, strategy).total_time
                except (InfeasibleScheduleError, ImportError):
                    # infeasible under this strategy, or an optional
                    # dependency (scipy for "ilp") is absent — either
                    # way the comparison entry is unavailable, not fatal
                    ctx.comparison[strategy] = None

    @staticmethod
    def _schedule(ctx: FlowContext, strategy: str) -> ScheduleResult:
        return resolve_schedule(
            strategy,
            ctx.soc,
            ctx.tasks,
            n_sessions=ctx.config.n_sessions,
            policy=ctx.config.policy,
        )


class InsertDft(Stage):
    """Test Insertion: wrappers, TAM bus + mux and test controller, priced
    from cell counts; the chip netlist is built when read (:class:`DftDesign`)."""

    name = "insert_dft"

    def execute(self, ctx: FlowContext) -> None:
        ctx.require("schedule")
        widths = ctx.schedule.scheduled_widths()
        wrappers: dict[str, GeneratedWrapper] = {}
        for core in ctx.soc.wrapped_cores:
            wrapper = plan_wrapper(core, widths.get(core.name, 1))
            if core.name in wrappers:  # netlist module names are unique
                raise ValueError(f"duplicate module {core.name + '_wrapper'!r}")
            wrappers[core.name] = wrapper
        _check_top_names(ctx.soc, wrappers)
        ctx.wrappers.update(wrappers)
        ctx.tam_bus = build_tam(ctx.schedule)
        ctx.dft = DftDesign(ctx.soc, ctx.schedule, wrappers, ctx.tam_bus)


def _check_top_names(soc: Soc, wrappers: dict[str, GeneratedWrapper]) -> None:
    """Raise the :class:`ValueError` stitching the chip top would for a
    clock domain that makes an invalid ``tclk_<domain>`` pin."""
    clock = SignalKind.CLOCK
    for name in sorted(wrappers):
        for port in soc.core(name).ports:
            if port.kind is clock and port.width == 1:
                check_name(f"tclk_{port.clock_domain or port.name}", "port name")


class DftDesign:
    """InsertDft's output: the leaf-cell counts that price each DFT block,
    and the DFT-inserted ``netlist``, which :meth:`build` generates once,
    in one ``insert_dft.netlist`` span, with the flow's usual generators."""

    def __init__(self, soc: Soc, schedule: ScheduleResult,
                 wrappers: dict[str, GeneratedWrapper], tam_bus: TamBus):
        self.soc, self.schedule, self.wrappers, self.tam_bus = soc, schedule, wrappers, tam_bus
        self.controller_cells = controller_cells(schedule)
        self.tam_mux_cells = tam_mux_cells(tam_bus)
        self.netlist = self.controller_module = self.tam_module = None
        for wrapper in wrappers.values():
            wrapper.build_netlist = self.build

    def build(self) -> Netlist:
        """Generate the DFT-inserted netlist, on the first call only."""
        if self.netlist is None:
            # looked up per call, so a wrapper patched onto the module attribute applies
            from repro.controller.generator import make_test_controller

            with span("insert_dft.netlist", soc=self.soc.name):
                netlist = Netlist()
                for core in self.soc.wrapped_cores:
                    generate_wrapper(core, netlist, plan=self.wrappers[core.name].plan)
                self.tam_module = netlist.add(make_tam_mux(self.tam_bus))
                self.controller_module = netlist.add(make_test_controller(self.schedule))
                netlist.top_name = self._build_top(netlist).name
                self.netlist = netlist
        return self.netlist

    def _build_top(self, netlist: Netlist) -> Module:
        """Stitch the DFT-inserted chip top: wrappers (cores inside),
        serial-chained WSI/WSO, TAM pins, controller hookup."""
        tam_bus, tam_module, controller_module = self.tam_bus, self.tam_module, self.controller_module
        top = Module(f"{self.soc.name}_test_top")
        for pin in ("tck", "trstn", "tc_start", "tc_next", "tc_config_done",
                    "shiftwr", "capturewr", "updatewr", "wsi", "parallel_sel"):
            top.add_input(pin)
        top.add_output("wso")
        top.add_output("tc_done")
        for w in range(tam_bus.width):
            top.add_input(f"tam_in{w}")
            top.add_output(f"tam_out{w}")

        ctrl_conns = {
            "tck": "tck", "trstn": "trstn", "start": "tc_start",
            "next_session": "tc_next", "config_done": "tc_config_done",
            "shiftwr": "shiftwr", "capturewr": "capturewr", "updatewr": "updatewr",
            "selectwir": "n_selectwir", "shift_bcast": "n_shift",
            "capture_bcast": "n_capture", "update_bcast": "n_update",
            "done": "tc_done",
        }
        for port in controller_module.ports:
            if port.name.startswith(("te_", "session_sel")):
                ctrl_conns[port.name] = f"n_{port.name}"
        top.add_instance("u_ctrl", controller_module.name, **ctrl_conns)

        # shared control pins (the session-sharing IO model of E3):
        # one pin per clock domain, one shared SE, one shared reset;
        # TE/test signals come from the controller's te_<core> outputs
        top.add_input("se_shared")
        top.add_input("rst_shared")
        clock_pins: dict[str, str] = {}
        serial_prev = "wsi"
        mux_conns: dict[str, str] = {}
        for port in tam_module.ports:
            if port.name.startswith("sel"):
                mux_conns[port.name] = f"n_session_sel{port.name[3:]}"
        slot_wires: dict[tuple[str, int], int] = {}
        for slot in reversed(tam_bus.slots):  # a core's first slot wins
            slot_wires.update({(slot.core_name, i): wire for i, wire in enumerate(slot.wires)})

        for core_name in sorted(self.wrappers):
            wrapper = netlist.module(f"{core_name}_wrapper")
            core = self.soc.core(core_name)
            port_kind = {p.name: p for p in core.ports if not p.run}
            # the wrapper's own TAM ports: a core port such as wpi_x, or
            # wpi7 on a narrower wrapper, is wired by its kind below
            width = self.wrappers[core_name].plan.width
            tam_in = {f"wpi{k}": k for k in range(width)}
            tam_out = {f"wpo{k}" for k in range(width)}
            conns: dict[str, str] = {}
            for port in wrapper.ports:
                if port.name == "wsi":
                    conns[port.name] = serial_prev
                elif port.name == "wso":
                    conns[port.name] = serial_prev = f"n_wso_{core_name}"
                elif port.name in _WRAPPER_CONTROL_NETS:
                    conns[port.name] = _WRAPPER_CONTROL_NETS[port.name]
                elif port.name in tam_in:
                    wire = slot_wires.get((core_name, tam_in[port.name]))
                    conns[port.name] = f"tam_in{wire}" if wire is not None else f"n_nc_{core_name}_{port.name}"
                elif port.name in tam_out:
                    conns[port.name] = f"n_{core_name}_{port.name}"
                else:
                    core_port = port_kind.get(port.name)
                    kind = core_port.kind if core_port is not None else None
                    if kind is SignalKind.CLOCK:
                        domain = core_port.clock_domain or port.name
                        if domain not in clock_pins:
                            clock_pins[domain] = top.add_input(f"tclk_{domain}")
                        conns[port.name] = clock_pins[domain]
                    elif kind is SignalKind.SCAN_ENABLE:
                        conns[port.name] = "se_shared"
                    elif kind is SignalKind.RESET:
                        conns[port.name] = "rst_shared"
                    elif kind in (SignalKind.TEST_ENABLE, SignalKind.TEST):
                        conns[port.name] = f"n_te_{core_name}"
                    else:
                        # functional IO: internal glue net (driven by the
                        # mission-mode interconnect, not modelled here)
                        conns[port.name] = f"glue_{core_name}_{port.name}"
            top.add_instance(f"u_wrap_{core_name}", wrapper.name, **conns)
        # TAM mux inputs: wrapper wpo nets.  Map via the bus slots — mux
        # input ports are sanitized task names, so parsing a core name
        # out of the port string breaks for cores with '_' in the name.
        slot_nets: dict[str, str] = {}
        for slot in tam_bus.slots:
            for local in range(slot.width):
                port_name = f"{slot.task_name}_wpo{local}".replace(".", "_")
                slot_nets[port_name] = f"n_{slot.core_name}_wpo{local}"
        for port in tam_module.ports:
            if port.direction is PortDir.IN and port.name in slot_nets:
                mux_conns[port.name] = slot_nets[port.name]
            elif port.name.startswith("tam_out"):
                mux_conns[port.name] = port.name
        top.add_instance("u_tam_mux", tam_module.name, **mux_conns)
        top.add_instance("u_wso_buf", "BUF", A=serial_prev, Y="wso")
        netlist.add(top)
        return top


class TranslatePatterns(Stage):
    """Pattern Translator: core-level vectors → wrapper-level → cycle-based
    chip-level ATE programs, routed through the core's TAM slot."""

    name = "translate_patterns"

    def execute(self, ctx: FlowContext) -> None:
        if not ctx.pattern_data:
            return
        ctx.require("tam_bus")
        soc = ctx.soc
        for core_name, patterns in ctx.pattern_data.items():
            core = soc.core(core_name)
            wrapper = ctx.wrappers.get(core_name)
            if wrapper is None:
                continue
            if patterns.scan_vectors:
                wp = translate_core_to_wrapper(core, patterns, wrapper.plan)
                program = wrapper_scan_program(core, wp)
                task_name = next(
                    (f"{core_name}.{t.name}" for t in core.tests if t.kind.value == "scan"),
                    f"{core_name}.scan",
                )
                try:
                    slot = ctx.tam_bus.slot_for_task(task_name)
                    program = chip_level_program(program, slot)
                except KeyError:
                    pass
                ctx.programs[f"{core_name}.scan"] = program
            if patterns.functional_vectors:
                ctx.programs[f"{core_name}.func"] = wrapper_functional_program(
                    core, patterns
                )


def default_stages(repair: bool = False, verify: bool = False) -> list[Stage]:
    """The paper's Fig.-1 flow, in order.

    ``repair=True`` inserts the optional ``analyze_repair`` stage
    (memory diagnosis & repair, :mod:`repro.repair`) right after BRAINS;
    ``verify=True`` appends the ``verify`` stage (invariant checking,
    :mod:`repro.verify`) after the Pattern Translator.
    """
    stages: list[Stage] = [
        ParseStil(), CompileBist(), Schedule(), InsertDft(), TranslatePatterns(),
    ]
    if repair:
        from repro.repair.analysis import AnalyzeRepair

        stages.insert(2, AnalyzeRepair())
    if verify:
        from repro.verify.stage import VerifySchedule

        stages.append(VerifySchedule())
    return stages


@dataclass
class Pipeline:
    """An ordered list of stages with list-algebra helpers.

    ``Pipeline.default()`` is the full Fig.-1 flow; ``until``/``since``
    slice it, ``replacing`` swaps one stage for another (by name), and
    ``|`` appends.  All helpers return new pipelines — compose freely.
    """

    stages: list[Stage] = field(default_factory=default_stages)

    @classmethod
    def default(cls) -> "Pipeline":
        return cls(default_stages())

    @property
    def stage_names(self) -> list[str]:
        return [s.name for s in self.stages]

    def run(self, ctx: FlowContext) -> FlowContext:
        """Run every stage, in order, over ``ctx``."""
        for stage in self.stages:
            stage.run(ctx)
        return ctx

    # -- composition helpers ----------------------------------------------

    def until(self, name: str) -> "Pipeline":
        """The prefix ending at (and including) stage ``name``."""
        idx = self._index(name)
        return Pipeline(self.stages[: idx + 1])

    def since(self, name: str) -> "Pipeline":
        """The suffix starting at stage ``name``."""
        return Pipeline(self.stages[self._index(name):])

    def replacing(self, name: str, stage: Stage) -> "Pipeline":
        """A copy with the named stage swapped for ``stage``."""
        idx = self._index(name)
        stages = list(self.stages)
        stages[idx] = stage
        return Pipeline(stages)

    def __or__(self, other: "Pipeline | Stage | Sequence[Stage]") -> "Pipeline":
        if isinstance(other, Pipeline):
            extra = other.stages
        elif isinstance(other, Stage):
            extra = [other]
        else:
            extra = list(other)
        return Pipeline(list(self.stages) + extra)

    def _index(self, name: str) -> int:
        for i, stage in enumerate(self.stages):
            if stage.name == name:
                return i
        raise KeyError(
            f"pipeline has no stage {name!r}; stages: {self.stage_names}"
        )
