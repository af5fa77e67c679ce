"""Integration results: the console report and machine-readable output.

:class:`IntegrationResult` is everything STEAC produces for one SOC: the
:class:`~repro.core.pipeline.FlowContext` the flow's stages filled,
which ``Steac.integrate`` returns with ``runtime_seconds`` (and, when
tracing was on, ``trace``) set on it.  It adds no field, only views.
Besides the paper-style console ``report()``, it serializes to a stable,
JSON-native dict (``to_dict()`` / ``to_json()``) so benchmark harnesses
and CI can consume integration outcomes without scraping ASCII tables —
the reproducibility posture argued by SAIBERSOC (Rosso et al., 2020) and
"Testing SOAR Tools in Use" (Bridges et al., 2022).

Schema (``schema`` = ``"repro/integration-result/v4"``; documented in
``ARCHITECTURE.md``; golden-file regression fixtures live in
``tests/golden/``)::

    soc            {name, cores, memories, test_pins, total_gates,
                    memory_bits, power_budget}
    schedule       {strategy, total_time, session_count, pin_budget, notes,
                    sessions: [{index, length, power, control_pins, data_pins,
                                tests: [{name, core, kind, width, start, finish}]}]}
    comparison     {strategy: total_time | null}
    bist           null | {march, memory_count, group_count, total_cycles,
                           area_gates}
    repair         null | {allocator, bisr_gates,
                           memories: [{name, geometry, rows, cols,
                                       spare_rows, spare_cols, bisr_gates}],
                           monte_carlo: {trials, seed, allocator, ...,
                                         raw_yield, repair_rate,
                                         effective_yield}}
    verification   null | {soc, strategy, ok, rules_checked,
                           violations: [{rule, subject, message, severity}]}
    wrappers       {core: {wbc_count, area_gates}}
    tam            {width, slots: [{session, core, task, wires}]}
    dft_area       {chip_gates, overhead_percent, items: [{name, gates}]}
    programs       {name: {cycles, pins}}
    trace          null | {name, count, seconds, children: [...]}
    runtime_seconds, stage_seconds

v2 added the nullable ``repair`` key (and a "BISR" line in
``dft_area.items`` when repair analysis ran) on top of v1; v3 adds the
nullable ``verification`` key (populated when the flow ran with
``SteacConfig.verify_schedule``); v4 adds the nullable ``trace`` key —
the compact span-summary tree from :func:`repro.obs.summarize`,
populated when :mod:`repro.obs` tracing was enabled during the flow.
Each version is a strict superset of the previous one, so consumers
that ignore unknown keys keep working.

All values are JSON types, so ``json.loads(r.to_json()) == r.to_dict()``
round-trips exactly.

Wrapper and ``dft_area`` gates are Σ count × library area over
InsertDft's closed-form cell counts: the document needs no netlist.
"""

from __future__ import annotations

from repro.core.pipeline import FlowContext
from repro.netlist import AreaReport, cell_area
from repro.util import Table, document_text, format_cycles

RESULT_SCHEMA = "repro/integration-result/v4"
# bumped alongside the item schema: batch documents embed v4 item
# results, and the serve cache keys on the schema string, so stale
# embedded documents can never be served from disk
BATCH_SCHEMA = "repro/batch-result/v4"


class IntegrationResult(FlowContext):
    """Everything STEAC produces for one SOC: a finished flow, read
    through the views below (the DFT netlist and its modules are
    generated on first access, see :class:`~repro.core.pipeline.DftDesign`)."""

    @property
    def total_test_time(self) -> int:
        return self.schedule.total_time

    @property
    def dft_area_report(self) -> AreaReport:
        """Controller + TAM mux overhead (the paper's 0.3% figure); the
        wrapper cells are reported separately, as the paper does."""
        report = AreaReport(chip_gates=self.soc.total_gates)
        report.add("Test Controller", cell_area(self.dft.controller_cells),
                   note="paper: ~371 gates")
        report.add("TAM multiplexer", cell_area(self.dft.tam_mux_cells),
                   note="paper: ~132 gates")
        if self.repair is not None:
            report.add("BISR (fuses + comparators)", self.repair.bisr_gates_total,
                       note=f"{len(self.repair.memories)} memories")
        return report

    @property
    def wrapper_area_total(self) -> float:
        return sum(w.area for w in self.wrappers.values())

    # -- machine-readable output ------------------------------------------

    def to_dict(self) -> dict:
        """The result as a JSON-native dict (schema in the module docstring)."""
        soc = self.soc
        area = self.dft_area_report
        return {
            "schema": RESULT_SCHEMA,
            "soc": {
                "name": soc.name,
                "cores": len(soc.cores),
                "memories": len(soc.memories),
                "test_pins": soc.test_pins,
                "total_gates": soc.total_gates,
                "memory_bits": soc.total_memory_bits,
                "power_budget": soc.power_budget,
            },
            "schedule": self.schedule.to_dict(),
            "comparison": dict(self.comparison),
            "bist": self.bist_engine.to_dict() if self.bist_engine else None,
            "repair": self.repair.to_dict() if self.repair else None,
            "verification": self.verification.to_dict() if self.verification else None,
            "wrappers": {
                name: {
                    "wbc_count": wrapper.wbc_count,
                    "area_gates": round(wrapper.area, 1),
                }
                for name, wrapper in sorted(self.wrappers.items())
            },
            "tam": {
                "width": self.tam_bus.width,
                "slots": [
                    {
                        "session": slot.session,
                        "core": slot.core_name,
                        "task": slot.task_name,
                        "wires": list(slot.wires),
                    }
                    for slot in self.tam_bus.slots
                ],
            },
            "dft_area": {
                "chip_gates": area.chip_gates,
                "overhead_percent": round(area.overhead_percent, 4),
                "items": [
                    {"name": item.name, "gates": round(item.gates, 1)}
                    for item in area.items
                ],
            },
            "programs": {
                name: program.to_dict() for name, program in sorted(self.programs.items())
            },
            "trace": self.trace,
            "runtime_seconds": round(self.runtime_seconds, 6),
            "stage_seconds": {k: round(v, 6) for k, v in self.stage_seconds.items()},
        }

    def to_json(self) -> str:
        """``to_dict()`` as :func:`repro.util.document_text`; round-trips
        through ``json.loads``."""
        return document_text(self.to_dict())

    # -- console report ----------------------------------------------------

    def report(self) -> str:
        """The STEAC console report."""
        lines = [self.soc.describe(), ""]
        lines.append(self.schedule.render())
        lines.append("")
        if self.comparison:
            table = Table(["Strategy", "Total test time"], title="Scheduling comparison")
            for strategy, total in self.comparison.items():
                table.add_row(
                    [strategy, format_cycles(total) if total is not None else "infeasible"]
                )
            lines.append(table.render())
            lines.append("")
        if self.bist_engine is not None:
            lines.append(self.bist_engine.plan.render())
            lines.append("")
        if self.repair is not None:
            lines.append(self.repair.render())
            lines.append("")
        if self.verification is not None:
            lines.append(self.verification.render())
            lines.append("")
        lines.append(self.dft_area_report.render())
        lines.append(
            f"wrapper cells: {sum(w.wbc_count for w in self.wrappers.values())} WBCs, "
            f"{self.wrapper_area_total:.0f} gates (reported separately, as in the paper)"
        )
        lines.append("")
        lines.append(f"integration runtime: {self.runtime_seconds:.2f} s "
                     "(paper: 5 minutes on a Sun Blade 1000)")
        return "\n".join(lines)
