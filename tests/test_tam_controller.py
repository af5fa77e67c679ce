"""Tests for TAM bus/mux generation and the test controller."""

import pytest

from repro.controller import make_test_controller
from repro.netlist import HIGH, LOW, Simulator
from repro.sched import schedule_sessions, tasks_from_soc
from repro.soc.dsc import build_dsc_chip
from repro.tam import build_tam, make_tam_mux


@pytest.fixture(scope="module")
def dsc_schedule():
    soc = build_dsc_chip()
    return schedule_sessions(soc, tasks_from_soc(soc))


class TestTamBus:
    def test_build_from_schedule(self, dsc_schedule):
        bus = build_tam(dsc_schedule)
        assert bus.width >= 1
        # every scan task got a slot
        scan_tasks = [
            t.task.name
            for s in dsc_schedule.sessions
            for t in s.tests
            if t.task.is_scan
        ]
        assert sorted(s.task_name for s in bus.slots) == sorted(scan_tasks)

    def test_slots_within_width(self, dsc_schedule):
        bus = build_tam(dsc_schedule)
        for slot in bus.slots:
            assert all(0 <= w < bus.width for w in slot.wires)

    def test_no_overlap_within_session(self, dsc_schedule):
        bus = build_tam(dsc_schedule)
        for s in range(bus.sessions):
            used = [w for slot in bus.slots if slot.session == s for w in slot.wires]
            assert len(used) == len(set(used))

    def test_slot_lookup(self, dsc_schedule):
        bus = build_tam(dsc_schedule)
        slot = bus.slots[0]
        assert bus.slot_for_task(slot.task_name) is slot
        with pytest.raises(KeyError):
            bus.slot_for_task("nope")

    def test_render(self, dsc_schedule):
        assert "TAM bus" in build_tam(dsc_schedule).render().render()


class TestTamMux:
    def test_validates(self, dsc_schedule):
        bus = build_tam(dsc_schedule)
        assert make_tam_mux(bus).validate() == []

    def test_steering_logic(self, dsc_schedule):
        bus = build_tam(dsc_schedule)
        mux = make_tam_mux(bus)
        sim = Simulator(mux)
        slot = bus.slots[0]
        # select the slot's session, drive its wpo, observe tam_out
        sel_bits = [p for p in mux.input_ports if p.startswith("sel")]
        for b, port in enumerate(sorted(sel_bits)):
            sim.poke(port, (slot.session >> b) & 1)
        for p in mux.input_ports:
            if p.endswith("_wpo0"):
                sim.poke(p, HIGH if p.startswith(slot.task_name.replace(".", "_")) else LOW)
        sim.evaluate()
        assert sim.get(f"tam_out{slot.wires[0]}") == HIGH

    def test_unselected_session_outputs_low(self, dsc_schedule):
        bus = build_tam(dsc_schedule)
        mux = make_tam_mux(bus)
        sim = Simulator(mux)
        unused = bus.sessions + 1
        sel_bits = sorted(p for p in mux.input_ports if p.startswith("sel"))
        for b, port in enumerate(sel_bits):
            sim.poke(port, (unused >> b) & 1)
        for p in mux.input_ports:
            if "_wpo" in p:
                sim.poke(p, HIGH)
        sim.evaluate()
        # selecting a session with no slot on wire 0 gives 0
        if bus.width:
            assert sim.get("tam_out0") in (LOW, HIGH)  # defined, not X


class TestControllerNetlist:
    def test_validates(self, dsc_schedule):
        assert make_test_controller(dsc_schedule).validate() == []

    def test_fsm_walk_in_silicon(self, dsc_schedule):
        """Drive the generated gates through a full session walk."""
        ctrl = make_test_controller(dsc_schedule)
        sim = Simulator(ctrl)
        sim.reset_state(LOW)
        sim.set_inputs({p: LOW for p in ctrl.input_ports})
        sim.poke("trstn", HIGH)
        sim.evaluate()
        assert sim.get("done") == LOW
        # start -> CONFIG
        sim.poke("start", HIGH)
        sim.clock("tck")
        sim.poke("start", LOW)
        sim.evaluate()
        assert sim.get("selectwir") == HIGH
        # CONFIG -> RUN
        sim.poke("config_done", HIGH)
        sim.clock("tck")
        sim.poke("config_done", LOW)
        sim.evaluate()
        assert sim.get("selectwir") == LOW
        # walk the remaining sessions
        n = len(dsc_schedule.sessions)
        for _s in range(n - 1):
            sim.poke("next_session", HIGH)
            sim.clock("tck")
            sim.poke("next_session", LOW)
            sim.evaluate()
            assert sim.get("selectwir") == HIGH
            sim.poke("config_done", HIGH)
            sim.clock("tck")
            sim.poke("config_done", LOW)
            sim.evaluate()
        sim.poke("next_session", HIGH)
        sim.clock("tck")
        sim.poke("next_session", LOW)
        sim.evaluate()
        assert sim.get("done") == HIGH

    def test_te_outputs_follow_session(self, dsc_schedule):
        ctrl = make_test_controller(dsc_schedule)
        sim = Simulator(ctrl)
        sim.reset_state(LOW)
        sim.set_inputs({p: LOW for p in ctrl.input_ports})
        sim.poke("trstn", HIGH)
        sim.poke("start", HIGH)
        sim.clock("tck")
        sim.poke("start", LOW)
        sim.poke("config_done", HIGH)
        sim.clock("tck")
        sim.poke("config_done", LOW)
        sim.evaluate()
        session0 = dsc_schedule.sessions[0]
        active = {t.task.core_name for t in session0.tests}
        for core in sorted({t.task.core_name for s in dsc_schedule.sessions for t in s.tests}):
            expected = HIGH if core in active else LOW
            assert sim.get(f"te_{core}") == expected, core

    def test_area_order_of_magnitude(self, dsc_schedule):
        """Paper: 'about 371' gates; ours must land in the same decade."""
        area = make_test_controller(dsc_schedule).area()
        assert 50 <= area <= 1000
