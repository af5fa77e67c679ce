"""Tests for the repair subsystem's platform integration: the
AnalyzeRepair stage, the v2 result schema, and the BISR area model."""

import dataclasses
import json

import pytest

from repro.core import Pipeline, Steac, SteacConfig, default_stages
from repro.repair import (
    DEFAULT_REDUNDANCY,
    analyze_soc_repair,
    bisr_gates,
)
from repro.soc import MemorySpec, RedundancySpec, Soc
from repro.soc.demo import build_demo_core


def repair_soc() -> Soc:
    soc = Soc("repair_soc", test_pins=24)
    soc.add_core(build_demo_core(patterns=4))
    soc.add_memory(MemorySpec("m0", words=1024, bits=8))
    soc.add_memory(
        MemorySpec("m1", words=512, bits=16, redundancy=RedundancySpec(1, 1))
    )
    return soc


def repair_config(**overrides) -> SteacConfig:
    kwargs = dict(analyze_repair=True, repair_trials=30, compare_strategies=False)
    kwargs.update(overrides)
    return SteacConfig(**kwargs)


class TestBisrArea:
    def test_no_spares_no_hardware(self):
        spec = MemorySpec("m", words=1024, bits=8)
        assert bisr_gates(spec) == 0.0
        assert bisr_gates(spec, RedundancySpec(0, 0)) == 0.0

    def test_gates_grow_with_spares_and_address_width(self):
        small = MemorySpec("s", words=1024, bits=8)
        large = MemorySpec("l", words=65536, bits=8)
        spares = RedundancySpec(2, 2)
        assert 0 < bisr_gates(small, spares) < bisr_gates(large, spares)
        assert bisr_gates(small, RedundancySpec(4, 4)) > bisr_gates(small, spares)

    def test_spec_redundancy_used_when_no_override(self):
        spec = MemorySpec("m", words=1024, bits=8, redundancy=RedundancySpec(2, 0))
        assert bisr_gates(spec) > 0.0


class TestAnalyzeRepairStage:
    def test_with_repair_inserts_stage_after_bist(self):
        names = Pipeline(default_stages(repair=True)).stage_names
        assert names.index("analyze_repair") == names.index("compile_bist") + 1
        assert "analyze_repair" not in Pipeline.default().stage_names
        assert names[:2] + names[3:] == Pipeline.default().stage_names

    def test_stage_produces_repair_artifact(self):
        ctx = Steac(repair_config()).context(repair_soc())
        Pipeline(default_stages(repair=True)).until("analyze_repair").run(ctx)
        assert ctx.repair is not None
        assert {m.name for m in ctx.repair.memories} == {"m0", "m1"}
        assert ctx.repair.monte_carlo.trials == 30

    def test_memoryless_soc_leaves_artifact_none(self):
        soc = Soc("nomem", test_pins=24)
        soc.add_core(build_demo_core(patterns=3))
        result = Steac(repair_config()).integrate(soc)
        assert result.repair is None
        assert result.to_dict()["repair"] is None

    def test_spec_redundancy_respected_default_applied(self):
        analysis = analyze_soc_repair(repair_soc().memories, trials=10)
        by_name = {m.name: m for m in analysis.memories}
        assert by_name["m0"].spare_rows == DEFAULT_REDUNDANCY.spare_rows
        assert (by_name["m1"].spare_rows, by_name["m1"].spare_cols) == (1, 1)

    def test_stage_records_time(self):
        result = Steac(repair_config()).integrate(repair_soc())
        assert "analyze_repair" in result.stage_seconds

    def test_config_controls_allocator_and_seed(self):
        result = Steac(repair_config(repair_allocator="exact", repair_seed=3)).integrate(
            repair_soc()
        )
        assert result.repair.allocator == "exact"
        assert result.repair.monte_carlo.seed == 3


class TestResultSchemaV2:
    def test_repair_section_and_bisr_area_item(self):
        result = Steac(repair_config()).integrate(repair_soc())
        doc = result.to_dict()
        assert doc["schema"] == "repro/integration-result/v4"
        repair = doc["repair"]
        assert repair["allocator"] == "greedy"
        assert repair["bisr_gates"] > 0
        assert len(repair["memories"]) == 2
        mc = repair["monte_carlo"]
        assert mc["trials"] == 30
        assert 0.0 <= mc["raw_yield"] <= mc["effective_yield"] <= 1.0
        assert any("BISR" in i["name"] for i in doc["dft_area"]["items"])

    def test_v4_is_superset_of_v1(self):
        """Back-compat: without repair, verification, or tracing the
        document is the v1 shape plus null repair/verification/trace
        keys — every v1 key unchanged."""
        plain = Steac(SteacConfig(compare_strategies=False)).integrate(repair_soc())
        doc = plain.to_dict()
        assert doc["repair"] is None
        assert doc["verification"] is None
        assert doc["trace"] is None
        v1_keys = {
            "schema", "soc", "schedule", "comparison", "bist", "wrappers",
            "tam", "dft_area", "programs", "runtime_seconds", "stage_seconds",
        }
        assert v1_keys | {"repair", "verification", "trace"} == set(doc)
        assert [i["name"] for i in doc["dft_area"]["items"]] == [
            "Test Controller", "TAM multiplexer",
        ]

    def test_json_round_trips(self):
        result = Steac(repair_config()).integrate(repair_soc())
        assert json.loads(result.to_json()) == result.to_dict()

    def test_report_includes_repair_tables(self):
        result = Steac(repair_config()).integrate(repair_soc())
        text = result.report()
        assert "Redundancy and BISR hardware" in text
        assert "Monte-Carlo repair rate" in text


class TestRedundancySpecModel:
    def test_negative_spares_rejected(self):
        with pytest.raises(ValueError):
            RedundancySpec(-1, 0)

    def test_describe_and_has_spares(self):
        assert RedundancySpec(2, 1).describe() == "2R+1C"
        assert not RedundancySpec().has_spares
        assert RedundancySpec(0, 1).has_spares

    def test_with_redundancy_returns_updated_copy(self):
        spec = MemorySpec("m", words=64, bits=4)
        updated = dataclasses.replace(spec, redundancy=RedundancySpec(1, 2))
        assert spec.redundancy is None
        assert updated.redundancy == RedundancySpec(1, 2)
        assert updated.name == spec.name
