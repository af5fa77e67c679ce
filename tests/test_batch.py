"""Tests for batch integration (integrate_many) and structured results."""

import json

import pytest

from repro.core import BatchResult, Steac, SteacConfig, integrate_many
from repro.soc import MemorySpec, Soc
from repro.soc.demo import build_demo_core
from repro.soc.dsc import build_dsc_chip


def make_soc(name: str, test_pins: int = 24) -> Soc:
    soc = Soc(name, test_pins=test_pins)
    soc.add_core(build_demo_core(name=f"core_{name}", patterns=3))
    soc.add_memory(MemorySpec(f"m_{name}", words=256, bits=8))
    return soc


def quick_config() -> SteacConfig:
    return SteacConfig(compare_strategies=False)


class TestIntegrateMany:
    def test_results_in_input_order(self):
        socs = [make_soc(f"soc{i}") for i in range(4)]
        batch = Steac(quick_config()).integrate_many(socs, workers=4)
        assert batch.ok and len(batch) == 4
        assert [item.soc_name for item in batch] == [s.name for s in socs]
        assert [item.index for item in batch] == [0, 1, 2, 3]

    def test_deterministic_across_worker_counts(self):
        socs = [make_soc(f"soc{i}", test_pins=16 + 4 * i) for i in range(4)]
        seq = Steac(quick_config()).integrate_many(socs, workers=1)
        par = Steac(quick_config()).integrate_many(
            [make_soc(f"soc{i}", test_pins=16 + 4 * i) for i in range(4)], workers=4
        )
        assert [i.result.total_test_time for i in seq] == [
            i.result.total_test_time for i in par
        ]

    def test_per_soc_error_isolation(self):
        socs = [make_soc("good0"), make_soc("bad", test_pins=2), make_soc("good1")]
        batch = Steac(quick_config()).integrate_many(socs, workers=3)
        assert not batch.ok
        assert [item.ok for item in batch] == [True, False, True]
        failed = batch.failures[0]
        assert failed.soc_name == "bad" and failed.index == 1
        assert failed.error  # carries the exception text
        assert len(batch.results) == 2

    def test_module_level_function_and_default_workers(self):
        batch = integrate_many([make_soc("solo")], config=quick_config())
        assert isinstance(batch, BatchResult)
        assert batch.ok and batch.workers == 1

    def test_render_mentions_failures(self):
        socs = [make_soc("ok0"), make_soc("bad", test_pins=2)]
        batch = Steac(quick_config()).integrate_many(socs)
        text = batch.render()
        assert "FAILED" in text and "ok0" in text


class TestStructuredResults:
    @pytest.fixture(scope="class")
    def result(self):
        return Steac().integrate(build_dsc_chip())

    def test_to_json_round_trips(self, result):
        assert json.loads(result.to_json()) == result.to_dict()

    def test_schema_and_core_fields(self, result):
        d = result.to_dict()
        assert d["schema"] == "repro/integration-result/v4"
        assert d["soc"]["name"] == "dsc_controller"
        assert d["schedule"]["total_time"] == result.total_test_time
        assert d["schedule"]["session_count"] == len(d["schedule"]["sessions"])
        assert set(d["comparison"]) == {"session", "nonsession", "serial"}
        assert d["bist"]["memory_count"] == 22
        assert set(d["wrappers"]) == {"USB", "TV", "JPEG"}
        assert d["tam"]["width"] >= 1
        assert 0.0 < d["dft_area"]["overhead_percent"] < 1.0

    def test_scheduled_tests_serialized(self, result):
        d = result.to_dict()
        names = {
            t["name"] for s in d["schedule"]["sessions"] for t in s["tests"]
        }
        assert "USB.usb_scan" in names
        for session in d["schedule"]["sessions"]:
            for test in session["tests"]:
                assert test["finish"] >= test["start"]

    def test_batch_to_json_round_trips(self):
        batch = Steac(quick_config()).integrate_many(
            [make_soc("a"), make_soc("b", test_pins=2)]
        )
        d = json.loads(batch.to_json())
        assert d == batch.to_dict()
        assert d["schema"] == "repro/batch-result/v4"
        assert d["backend"] in {"serial", "process"}
        assert d["ok"] is False
        assert d["items"][0]["result"]["schema"] == "repro/integration-result/v4"
        assert d["items"][1]["result"] is None
