"""Self-tests of the benchmark: calibration arithmetic, the tail rule,
seeded inputs, and BENCHMARK.json against the catalog in ``spec.py``.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import inputs  # noqa: E402
import spec  # noqa: E402
from calib import Calibrator, Timed, calibrate, percentile, samples_beyond, tail_percentile  # noqa: E402


class TestCalibration:
    def test_rescales_to_nominal_speed(self):
        # the reference loop ran at half speed, so the op counts half
        assert calibrate(0.8, ref_ms=2 * calib.REF_NOMINAL_MS) == pytest.approx(0.4)
        assert calibrate(0.8, ref_ms=calib.REF_NOMINAL_MS / 2) == pytest.approx(1.6)
        with pytest.raises(ValueError):
            calibrate(1.0, ref_ms=0.0)

    def test_timed_scales_by_its_reference(self):
        timed = Timed(raw_s=0.3, ref_ms=1.5 * calib.REF_NOMINAL_MS)
        assert timed.s == pytest.approx(0.2)
        assert timed.ms == pytest.approx(200.0)
        assert timed.scale(0.15) == pytest.approx(0.1)

    def test_bracket_averages_speeds(self, monkeypatch):
        readings = iter([2.0, 4.0])
        monkeypatch.setattr(calib, "reference_ms", lambda clock: next(readings))
        cal = Calibrator()
        with cal.bracket() as bracket:
            pass
        # half the op at speed 1/2, half at 1/4: mean speed 3/8
        assert bracket.timed.ref_ms == pytest.approx(8.0 / 3.0)
        assert cal.readings == [2.0, 4.0]

    def test_in_op_samples_join_the_mean(self, monkeypatch):
        monkeypatch.setattr(calib, "reference_ms", lambda clock: 1.0)
        cal = Calibrator.in_process()
        with cal.bracket() as bracket:
            deadline = time.thread_time() + 5 * calib.SAMPLE_S
            while time.thread_time() < deadline:
                pass
        assert len(bracket._samples) >= 2
        speeds = [1.0, *(1.0 / ms for ms in bracket._samples), 1.0]
        assert bracket.timed.ref_ms == pytest.approx(len(speeds) / sum(speeds))
        # the samples' own time is not the op's
        assert bracket.timed.raw_s < 5 * calib.SAMPLE_S

    def test_recent_reading_brackets_the_next_op(self, monkeypatch):
        readings = iter([2.0, 4.0, 6.0])
        monkeypatch.setattr(calib, "reference_ms", lambda clock: next(readings))
        cal = Calibrator()
        with cal.bracket():
            pass
        with cal.bracket() as second:
            pass
        assert second.timed.ref_ms == pytest.approx(4.8)  # readings 4 and 6

    def test_busy_program_forces_another_reading(self, monkeypatch):
        monkeypatch.setattr(calib, "reference_ms", lambda clock: 1.0)
        ticks = iter([0, 1, 1, 1])  # busy during the first reading only
        cal = Calibrator(idle_check=lambda: next(ticks))
        cal.reading()
        assert cal.guard_retries == 1 and cal.guard_failures == 0

    def test_reference_loop_is_fixed(self):
        assert calib._ref_block() == calib._ref_block()
        assert calib.reference_ms(blocks=1) > 0


class TestTail:
    @pytest.mark.parametrize("n, p", [
        (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
        (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9),
    ])
    def test_highest_percentile_with_ten_beyond(self, n, p):
        assert tail_percentile(n) == p
        if p is not None:
            assert samples_beyond(n, p) >= 10

    def test_percentile_interpolates(self):
        assert percentile([4, 1, 3, 2], 50) == pytest.approx(2.5)
        assert percentile([1, 2, 3, 4, 5], 100) == 5
        assert percentile([7], 95) == 7


class TestInputs:
    @pytest.mark.parametrize("order", [inputs.sweep_order, inputs.campaign_order])
    def test_seed_orders_a_fixed_population(self, order):
        first, again, other = order(3, 20), order(3, 20), order(4, 20)
        assert first == again
        assert first != other
        assert sorted(first) == sorted(other)

    def test_stream_is_seeded_with_fixed_form_shares(self):
        first, again, other = (inputs.serve_stream(s, 20) for s in (3, 3, 4))
        assert first == again
        assert first != other
        classes = lambda stream: Counter(name for name, _ in stream)
        assert classes(first) == classes(other)
        jobs = sum(len(js) for js in inputs.serve_catalog().values())
        assert len(set(first)) == jobs > inputs.SERVE_CACHE_SIZE

    def test_catalog_regenerates_byte_identical(self):
        first = json.dumps(inputs.serve_catalog(), sort_keys=True)
        assert first == json.dumps(inputs.serve_catalog(), sort_keys=True)
        catalog = inputs.serve_catalog()
        assert set(catalog) == set(inputs.SERVE_CLASSES)
        assert all(job["backend"] == "serial" and job["workers"] == 1
                   for jobs in catalog.values() for job in jobs)
        assert all(job["soc"]["soc_text"].startswith("SocName")
                   for job in catalog["soc_text"])
        assert inputs.SERVE_WARMUP_JOB not in [j for js in catalog.values() for j in js]


class TestRecords:
    def test_benchmark_json_mirrors_the_catalog(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert doc["command"] == ["python3", "perfbench/run.py"]
        assert doc["paths"] == ["perfbench"]
        assert {w["name"]: w["why"] for w in doc["workloads"]} == spec.WORKLOADS
        assert [tuple(m.values()) for m in doc["end_to_end"]] == list(spec.END_TO_END)
        assert [tuple(m.values()) for m in doc["per_layer"]] == list(spec.PER_LAYER)
        assert any(m["name"] == "setup_s" and m["bound"] == max(
            b for *_, b in spec.END_TO_END) for m in doc["end_to_end"])

    def test_layer_map_names_known_metrics(self):
        per_layer = {name for name, *_ in spec.PER_LAYER}
        end_to_end = {name for name, *_ in spec.END_TO_END}
        for entry in spec.LAYER_MAP.values():
            assert set(entry["metrics"]) <= per_layer
            for target in entry["moves"]:
                workload, metric = target.split("/")
                assert workload in spec.WORKLOADS and metric in end_to_end
        mapped = {m for entry in spec.LAYER_MAP.values() for m in entry["metrics"]}
        assert mapped == per_layer


class TestSelfTime:
    def test_every_span_layer_is_reported(self):
        from layers import LAYER_OF

        assert set(LAYER_OF.values()) <= set(spec.SELF_LAYERS)

    def test_root_self_time_is_unattributed(self):
        from layers import _analyze

        records = [
            {"id": 1, "parent": None, "name": "bench.op", "dur": 1.0},
            {"id": 2, "parent": 1, "name": "integrate", "dur": 0.9},
            {"id": 3, "parent": 2, "name": "pipeline.schedule", "dur": 0.6},
            {"id": 4, "parent": 3, "name": "sched.session", "dur": 0.5},
            {"id": 5, "parent": 2, "name": "pipeline.insert_dft", "dur": 0.2},
        ]
        spans = _analyze(records, root_id=1)
        assert spans["unattributed"] == pytest.approx(0.1)
        assert spans["self"]["sched"] == pytest.approx(0.6)
        assert spans["self"]["insert_dft"] == pytest.approx(0.2)
        assert spans["self"]["flow"] == pytest.approx(0.1)
        assert spans["root"] == 1.0
