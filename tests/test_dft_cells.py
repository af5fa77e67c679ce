"""Closed-form DFT cell counts against the gate-level netlist.

InsertDft prices the wrappers, the TAM mux and the test controller from
closed-form leaf-cell histograms, and builds the DFT-inserted netlist
only when something reads it.  These tests hold each histogram equal to
the built netlist's cell counts, and each area equal to the retained
netlist walk (``tests/oracles/dft_area_ref.py``), over DSC, d695 and
generated chips.  They also check that integrating, serializing and
pickling build no module, for the DFT netlist and for BRAINS's BIST
netlist, and that malformed chips are rejected with the messages the
netlist builder raised.
"""

import dataclasses
import pickle

import pytest

from repro.controller.generator import controller_cells, make_test_controller
from repro.core import Steac, SteacConfig
from repro.gen import SocGenerator
from repro.netlist import Module, Netlist, netlist_to_verilog
from repro.netlist.netlist import add_tree, tree_cells
from repro.obs import TRACER, disable_tracing, enable_tracing
from repro.sched.result import ScheduleResult
from repro.sched.tasks import tasks_from_soc
from repro.soc import Core, CoreType, Direction, Port, ScanChain, SignalKind, Soc, scan_test
from repro.soc.demo import build_demo_core
from repro.soc.dsc import build_dsc_chip
from repro.soc.itc02 import d695_soc
from repro.tam.bus import TamBus, TamSlot
from repro.tam.mux import make_tam_mux, tam_mux_cells
from repro.wrapper import generate_wrapper, plan_wrapper

from oracles.dft_area_ref import block_cells, reference_areas


def _single_core_soc() -> Soc:
    soc = Soc("one", test_pins=16)
    soc.add_core(build_demo_core(patterns=4))
    return soc


SERIAL = SteacConfig(strategy="serial", compare_strategies=False)
SESSION = SteacConfig(compare_strategies=False)

#: (label, chip builder, config): hard, soft and scanless cores; 1 to
#: >= 9 sessions (1 to 4 select bits); TAM widths from 1 wire pair up.
CORPUS = [
    ("one-core", _single_core_soc, SESSION),
    ("dsc", build_dsc_chip, SESSION),
    ("dsc-serial", build_dsc_chip, SERIAL),
    *((f"d695-{pins}", lambda p=pins: d695_soc(test_pins=p), SESSION)
      for pins in (16, 32, 64, 128)),
    ("d695-serial", d695_soc, SERIAL),
    *((f"{profile}-{seed}", lambda s=seed, p=profile: SocGenerator(s, p).generate(), SESSION)
      for profile, seeds in (("tiny", (1, 2, 3, 4)), ("small", (1, 2)),
                             ("d695-like", (1,)), ("large", (1,)))
      for seed in seeds),
]


@pytest.fixture(scope="module")
def corpus_results():
    return {label: Steac(config).integrate(build()) for label, build, config in CORPUS}


class TestTreeCells:
    @pytest.mark.parametrize("n", range(0, 12))
    @pytest.mark.parametrize("kind", ["AND", "OR"])
    def test_counter_matches_builder(self, n, kind):
        m = Module("t")
        add_tree(m, [f"i{k}" for k in range(n)], "y", kind, "u")
        assert dict(tree_cells(n, kind)) == m.cell_counts()
        assert m.validate() == []


class TestHandBuiltBlocks:
    """Shapes no scheduled chip produces: an empty schedule, a bus with
    idle TAM wires and sessions without a slot, and two slots sharing a
    mux data input (one task in two sessions)."""

    def test_empty_schedule_controller(self):
        schedule = ScheduleResult("empty", "session")
        assert dict(controller_cells(schedule)) == make_test_controller(schedule).cell_counts()

    @pytest.mark.parametrize("bus", [
        TamBus(width=0),
        TamBus(width=4, slots=[TamSlot(0, "a", "a.t", (0, 1)), TamSlot(3, "b", "b.t", (0,))]),
        TamBus(width=3, slots=[TamSlot(1, "a", "a.t", (2,)), TamSlot(1, "b", "b.x", (0,))]),
        TamBus(width=2, slots=[TamSlot(0, "a", "a.t", (0,)), TamSlot(1, "a", "a.t", (1,))]),
    ])
    def test_tam_mux_with_idle_wires(self, bus):
        assert dict(tam_mux_cells(bus)) == make_tam_mux(bus).cell_counts()


class TestCorpusDifferential:
    @pytest.mark.parametrize("label", [label for label, _, _ in CORPUS])
    def test_block_cells_equal_netlist(self, corpus_results, label):
        result = corpus_results[label]
        netlist = result.netlist
        for name, wrapper in result.wrappers.items():
            assert dict(wrapper.cells) == block_cells(wrapper.module, netlist), name
        assert dict(result.dft.controller_cells) == result.controller_module.cell_counts()
        assert dict(result.dft.tam_mux_cells) == result.tam_module.cell_counts()

    @pytest.mark.parametrize("label", [label for label, _, _ in CORPUS])
    def test_areas_equal_netlist_walk(self, corpus_results, label):
        result = corpus_results[label]
        reference = reference_areas(result)
        doc = result.to_dict()
        items = {item["name"]: item["gates"] for item in doc["dft_area"]["items"]}
        for block in ("Test Controller", "TAM multiplexer"):
            assert items[block] == round(reference[block], 1)
        for name, entry in doc["wrappers"].items():
            assert entry["area_gates"] == round(reference[name], 1)
            assert result.wrappers[name].area == pytest.approx(reference[name])

    def test_corpus_covers_the_shapes(self, corpus_results):
        sessions = {len(r.schedule.sessions) for r in corpus_results.values()}
        assert min(sessions) == 1 and max(sessions) >= 9
        cores = [c for r in corpus_results.values() for c in r.soc.wrapped_cores]
        assert any(c.core_type is CoreType.SOFT and c.scan_chains for c in cores)
        assert any(c.core_type is CoreType.HARD and c.scan_chains for c in cores)
        assert any(not c.scan_chains for c in cores)


def _soft_demo() -> Core:
    return dataclasses.replace(build_demo_core(name="softdemo"), core_type=CoreType.SOFT)


class TestEveryWidth:
    """From one wire pair to past the core's useful width."""

    @pytest.mark.parametrize("soc_name, core_name", [
        ("dsc", "USB"), ("dsc", "TV"), ("dsc", "JPEG"),
        ("d695", "s838"), ("d695", "s38584"), ("d695", "c6288"),
    ])
    def test_planned_cells_equal_generated(self, soc_name, core_name):
        soc = build_dsc_chip() if soc_name == "dsc" else d695_soc()
        core = soc.core(core_name)
        useful = max((t.max_width for t in tasks_from_soc(soc)
                      if t.core_name == core_name and t.is_scan), default=1)
        self._check(core, range(1, useful + 3))

    def test_soft_core_with_fewer_flops_than_wires(self):
        self._check(_soft_demo(), range(1, 6))

    @staticmethod
    def _check(core, widths):
        for width in widths:
            planned = plan_wrapper(core, width)
            netlist = Netlist()
            built = generate_wrapper(core, netlist, plan=planned.plan)
            assert dict(planned.cells) == block_cells(built.module, netlist), width
            assert planned.wbc_count == built.wbc_count


class TestSharedCellNames:
    """A core named like a shared cell keeps its whole wrapper area."""

    @pytest.mark.parametrize("name", ["demo", "WBC", "WBY", "WIR", "AND2"])
    def test_wrapper_area_ignores_core_name(self, name):
        soc = Soc("chip", test_pins=16)
        soc.add_core(build_demo_core(name=name, patterns=4))
        result = Steac(SESSION).integrate(soc)
        assert result.to_dict()["wrappers"][name]["area_gates"] == 213.8
        assert reference_areas(result)[name] == pytest.approx(213.8)


class TestOnDemandNetlist:
    def test_to_dict_builds_no_module(self, monkeypatch):
        built = []
        init = Module.__init__

        def counting_init(self, name):
            built.append(name)
            init(self, name)

        monkeypatch.setattr(Module, "__init__", counting_init)
        result = Steac().integrate(d695_soc())
        result.to_dict()
        result.report()
        assert built == []
        assert result.netlist.top.validate(result.netlist) == []
        assert "module d695_test_top" in netlist_to_verilog(result.netlist)
        assert built

    def test_netlist_built_once_and_shared(self):
        result = Steac(SESSION).integrate(build_dsc_chip())
        netlist = result.netlist
        assert result.netlist is netlist
        assert result.controller_module is netlist.module("test_controller")
        assert result.tam_module is netlist.module("tam_mux")
        for name, wrapper in result.wrappers.items():
            assert wrapper.module is netlist.module(f"{name}_wrapper")

    def test_wrapper_module_first_builds_everything(self):
        result = Steac(SESSION).integrate(build_dsc_chip())
        module = result.wrappers["TV"].module
        assert result.netlist.module("TV_wrapper") is module

    def test_build_is_one_span(self):
        result = Steac(SESSION).integrate(build_dsc_chip())
        TRACER.clear()
        enable_tracing()
        try:
            result.netlist
            result.tam_module
        finally:
            disable_tracing()
        names = [record["name"] for record in TRACER.records()]
        TRACER.clear()
        assert names == ["insert_dft.netlist"]

    def test_pickle_carries_no_netlist(self):
        result = Steac().integrate(d695_soc())
        data = pickle.dumps(result)
        assert b"repro.netlist.netlist" not in data
        assert len(data) < 200_000
        restored = pickle.loads(data)
        assert restored.to_dict()["wrappers"] == result.to_dict()["wrappers"]
        assert restored.netlist.top.validate(restored.netlist) == []
        assert restored.wrappers["s838"].module is restored.netlist.module("s838_wrapper")


class TestOnDemandBistNetlist:
    """BRAINS on DSC's 22 memories: integrating, serializing and pickling
    build no BIST module; the first read builds all 24, once."""

    def test_to_dict_builds_no_module(self, monkeypatch):
        built = []
        init = Module.__init__

        def counting_init(self, name):
            built.append(name)
            init(self, name)

        monkeypatch.setattr(Module, "__init__", counting_init)
        result = Steac().integrate(build_dsc_chip())
        result.to_dict()
        result.report()
        assert built == []
        engine = result.bist_engine
        assert engine.controller_module.validate(engine.netlist) == []
        assert len(built) == 24  # 22 TPGs, the sequencer, the BIST controller

    def test_pickle_carries_no_netlist(self):
        result = Steac().integrate(build_dsc_chip())
        data = pickle.dumps(result)
        assert b"repro.netlist.netlist" not in data
        assert len(data) < 50_000
        engine = pickle.loads(data).bist_engine
        assert engine.to_dict() == result.bist_engine.to_dict()
        for module in engine.netlist.modules.values():
            assert module.validate(engine.netlist) == [], module.name

    def test_netlist_built_once_in_one_span(self):
        engine = Steac(SESSION).integrate(build_dsc_chip()).bist_engine
        TRACER.clear()
        enable_tracing()
        try:
            netlist = engine.netlist
            tpgs, sequencers = engine.tpg_modules, engine.sequencer_modules
            controller = engine.controller_module
            assert engine.netlist is netlist
        finally:
            disable_tracing()
        names = [record["name"] for record in TRACER.records()]
        TRACER.clear()
        assert names == ["bist.netlist"]
        assert len(tpgs) == 22
        for name, module in tpgs.items():
            assert module is netlist.module(f"tpg_{name}")
        assert sequencers == [netlist.module("sequencer0")]
        assert controller is netlist.module("bist_controller") is netlist.top


def _core(extra=(), chains=None, clock_domain="demo_clk") -> Core:
    ports = [
        Port("clk", Direction.IN, SignalKind.CLOCK, clock_domain=clock_domain),
        Port("se", Direction.IN, SignalKind.SCAN_ENABLE),
        Port("si", Direction.IN, SignalKind.SCAN_IN),
        Port("so", Direction.OUT, SignalKind.SCAN_OUT),
        Port("si2", Direction.IN, SignalKind.SCAN_IN),
        Port("so2", Direction.OUT, SignalKind.SCAN_OUT),
        Port("a", Direction.IN),
        Port("y", Direction.OUT),
        *extra,
    ]
    chains = chains if chains is not None else [ScanChain("c0", 2, "si", "so")]
    return Core("demo", ports=ports, scan_chains=chains,
                tests=[scan_test(5, name="demo_scan", power=1.0)], gate_count=15)


#: Malformed chips and the message the netlist builder rejected each with.
REJECTIONS = {
    "wsi": ([_core([Port("wsi", Direction.IN)])],
            "duplicate port 'wsi' on module 'demo_wrapper'"),
    "parallel_sel": ([_core([Port("parallel_sel", Direction.IN)])],
                     "duplicate port 'parallel_sel' on module 'demo_wrapper'"),
    "wpo0": ([_core([Port("wpo0", Direction.OUT)])],
             "duplicate port 'wpo0' on module 'demo_wrapper'"),
    "bus-bit": ([_core([Port("a2", Direction.IN, width=2), Port("a2[0]", Direction.OUT)])],
                "duplicate port 'a2[0]' on module 'demo_wrapper'"),
    "repeated-chain": ([_core(chains=[ScanChain("c0", 2, "si", "so"),
                                      ScanChain("c0", 3, "si2", "so2")])],
                       "duplicate instance 'u_c0_si' in module 'demo_wrapper'"),
    "chain-vs-cell": ([_core([Port("x_si", Direction.IN)],
                             chains=[ScanChain("wbc_x", 2, "si", "so")])],
                      "duplicate instance 'u_wbc_x_si' in module 'demo_wrapper'"),
    "clock-domain": ([_core(clock_domain="a-b")], "invalid port name: 'tclk_a-b'"),
    "repeated-core": ([_core(), _core()], "duplicate module 'demo_wrapper'"),
}


class TestRejectionParity:
    @pytest.mark.parametrize("case", sorted(REJECTIONS))
    def test_same_message_as_the_builder(self, case):
        cores, message = REJECTIONS[case]
        soc = Soc("chip", cores=list(cores), test_pins=24)
        with pytest.raises(ValueError) as planned:
            Steac(SESSION).integrate(soc)
        assert str(planned.value) == message

    @pytest.mark.parametrize("case", ["wsi", "parallel_sel", "wpo0", "bus-bit",
                                      "repeated-chain", "chain-vs-cell"])
    def test_wrapper_generator_agrees(self, case):
        (core,), message = REJECTIONS[case]
        with pytest.raises(ValueError) as planned:
            plan_wrapper(core, 2)
        with pytest.raises(ValueError) as built:
            generate_wrapper(core, Netlist(), width=2)
        assert str(planned.value) == str(built.value) == message


def _plain_core(extra=(), chain_names=("c0",)) -> Core:
    """A hard core none of whose own names can collide with a wrapper
    name (``_core``'s ``se`` is a prefix of ``selectwir``), so only the
    ``extra`` ports and the chain names reach the wrapper's check."""
    ports = [Port("clk", Direction.IN, SignalKind.CLOCK, clock_domain="demo_clk"),
             Port("scan_en", Direction.IN, SignalKind.SCAN_ENABLE),
             Port("a", Direction.IN), Port("y", Direction.OUT), *extra]
    chains = []
    for i, name in enumerate(chain_names):
        ports += [Port(f"scan_in{i}", Direction.IN, SignalKind.SCAN_IN),
                  Port(f"scan_out{i}", Direction.OUT, SignalKind.SCAN_OUT)]
        chains.append(ScanChain(name, 2 + i, f"scan_in{i}", f"scan_out{i}"))
    return Core("demo", ports=ports, scan_chains=chains,
                tests=[scan_test(5, name="demo_scan", power=1.0)], gate_count=15)


#: Collisions among names no other port of the core can collide with:
#: core, TAM width, and the message the netlist builder raises.
NARROW_REJECTIONS = {
    "repeated-chain": (_plain_core(chain_names=("c", "c")), 2,
                       "duplicate instance 'u_c_si' in module 'demo_wrapper'"),
    "chain-vs-cell": (_plain_core([Port("x_si", Direction.IN)], ("wbc_x",)), 2,
                      "duplicate instance 'u_wbc_x_si' in module 'demo_wrapper'"),
    "chain-wbc-vs-cell": (_plain_core([Port("si", Direction.OUT)], ("wbc",)), 2,
                          "duplicate instance 'u_wbc_si' in module 'demo_wrapper'"),
    "run-wpi": (_plain_core([Port("wpi", Direction.IN, run=3)]), 1,
                "duplicate port 'wpi0' on module 'demo_wrapper'"),
    "port-wpi1": (_plain_core([Port("wpi1", Direction.IN)]), 2,
                  "duplicate port 'wpi1' on module 'demo_wrapper'"),
    "run-wpi1": (_plain_core([Port("wpi1", Direction.IN, run=3)]), 12,
                 "duplicate port 'wpi10' on module 'demo_wrapper'"),
    "bus-bit": (_plain_core([Port("d", Direction.IN, width=4), Port("d[3]", Direction.OUT)]), 2,
                "duplicate port 'd[3]' on module 'demo_wrapper'"),
    "wso": (_plain_core([Port("wso", Direction.OUT)]), 2,
            "duplicate port 'wso' on module 'demo_wrapper'"),
}

#: Near misses of the cases above that plan and build cleanly.
NARROW_ACCEPTED = {
    "run-wpi1-below-wpi10": (_plain_core([Port("wpi1", Direction.IN, run=3)]), 10),
    "chain-wbc-beside-other-cell": (_plain_core([Port("q", Direction.IN)], ("wbc", "wbc_x")), 2),
    "bus-beside-non-bit": (_plain_core([Port("d", Direction.IN, width=4), Port("d[4]", Direction.OUT)]), 2),
    "port-wpi-beyond-width": (_plain_core([Port("wpi2", Direction.IN)]), 2),
}


class TestNarrowCollisions:
    @pytest.mark.parametrize("case", sorted(NARROW_REJECTIONS))
    def test_planner_and_builder_raise_the_same_message(self, case):
        core, width, message = NARROW_REJECTIONS[case]
        with pytest.raises(ValueError) as planned:
            plan_wrapper(core, width)
        with pytest.raises(ValueError) as built:
            generate_wrapper(core, Netlist(), width=width)
        assert str(planned.value) == str(built.value) == message

    @pytest.mark.parametrize("case", sorted(NARROW_ACCEPTED))
    def test_near_misses_plan_what_the_builder_builds(self, case):
        core, width = NARROW_ACCEPTED[case]
        assert plan_wrapper(core, width) == generate_wrapper(core, Netlist(), width=width)


#: Core ports named like TAM ports that are not the wrapper's own
#: ``wpi0..wpi{w-1}`` / ``wpo0..wpo{w-1}``, and the top net each is wired to.
TAM_LOOKALIKES = {
    "wpi-suffix": (Port("wpi_x", Direction.IN), "glue_demo_wpi_x"),
    "wpi-beyond-width": (Port("wpi7", Direction.IN), "glue_demo_wpi7"),
    "wpo-clock": (Port("wpo_clk", Direction.IN, SignalKind.CLOCK), "tclk_wpo_clk"),
}


class TestTamLookalikePorts:
    @pytest.mark.parametrize("case", sorted(TAM_LOOKALIKES))
    def test_integrates_validates_and_connects(self, case):
        port, net = TAM_LOOKALIKES[case]
        chains = [ScanChain("c0", 2, "si", "so"), ScanChain("c1", 2, "si2", "so2")]
        soc = Soc("chip", cores=[_core([port], chains=chains)], test_pins=24)
        result = Steac(SESSION).integrate(soc)
        assert result.wrappers["demo"].plan.width == 2
        top = result.netlist.top
        assert top.validate(result.netlist) == []
        (wrap,) = [inst for inst in top.instances if inst.name == "u_wrap_demo"]
        assert wrap.conns[port.name] == net
        assert [wrap.conns[f"wpi{k}"] for k in range(2)] == ["tam_in0", "tam_in1"]
        assert [wrap.conns[f"wpo{k}"] for k in range(2)] == ["n_demo_wpo0", "n_demo_wpo1"]
        if port.kind is SignalKind.CLOCK:
            assert net in {p.name for p in top.ports}
