"""Tests for picklable time models and the batch executor backends.

The process backend only exists because ``TestTask`` / ``ScheduleResult``
became picklable (declarative :class:`ScanTimeModel` tables instead of
closures), so the pickle round-trips and the serial/process differential
live together here.
"""

import multiprocessing
import pickle

import pytest

from repro.core import Steac, SteacConfig, integrate_many
from repro.core.batch import ChunkRunner, resolve_backend
from repro.gen import ScenarioSpec, scenario_specs
from repro.sched import ScanTimeModel, scan_test_time, schedule_sessions, tasks_from_soc
from repro.soc.dsc import build_dsc_chip, build_usb_core
from repro.wrapper.balance import design_wrapper


def quick_config() -> SteacConfig:
    return SteacConfig(compare_strategies=False)


class TestScanTimeModelPickle:
    def test_model_matches_wrapper_redesign(self):
        usb = build_usb_core()
        model = ScanTimeModel.for_core(usb, patterns=716, max_width=4)
        for width in range(1, 5):
            plan = design_wrapper(usb, width)
            assert model(width) == scan_test_time(plan.scan_in_depth, plan.scan_out_depth, 716)

    def test_model_clamps_out_of_range_widths(self):
        model = ScanTimeModel.for_core(build_usb_core(), patterns=10, max_width=4)
        assert model(0) == model(1)
        assert model(100) == model(4)

    def test_model_rejects_empty_table(self):
        with pytest.raises(ValueError):
            ScanTimeModel(core_name="x", patterns=1, times=())

    def test_model_round_trips(self):
        model = ScanTimeModel.for_core(build_usb_core(), patterns=716)
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model
        assert clone(2) == model(2)

    def test_tasks_round_trip(self):
        for task in tasks_from_soc(build_dsc_chip()):
            clone = pickle.loads(pickle.dumps(task))
            assert clone == task
            assert clone.time(2) == task.time(2)

    def test_schedule_result_round_trips(self):
        soc = build_dsc_chip()
        result = schedule_sessions(soc, tasks_from_soc(soc))
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.to_dict() == result.to_dict()


def weave(x: int, y: int) -> int:
    """Module-level, hence picklable for the process backend."""
    return x * 10 + y


def normalize(doc: dict) -> dict:
    """Strip the fields that legitimately differ between backends."""
    doc = dict(doc)
    for key in ("elapsed_seconds", "workers", "backend"):
        doc.pop(key, None)
    for item in doc["items"]:
        if item["result"] is not None:
            item["result"]["runtime_seconds"] = 0.0
            item["result"]["stage_seconds"] = {}
    return doc


class TestBackends:
    def test_backend_resolution(self):
        assert resolve_backend("auto", 1, 8) == "serial"
        assert resolve_backend("auto", 4, 1) == "serial"
        assert resolve_backend("auto", 4, 8) == "process"
        assert resolve_backend("process", 4, 8) == "process"
        for gone in ("thread", "greenlet"):
            with pytest.raises(ValueError):
                resolve_backend(gone, 4, 8)

    def test_chunk_runner_preserves_order_and_rejects_auto(self):
        args = (range(5), range(5))
        with ChunkRunner("serial") as runner:
            serial = runner.map(weave, args)
        assert serial == [0, 11, 22, 33, 44]
        for chunksize in (1, 2):
            with ChunkRunner("process", workers=2) as runner:
                assert runner.map(weave, args, chunksize=chunksize) == serial
        with pytest.raises(ValueError):
            ChunkRunner("auto")

    def test_chunk_runner_joins_pool_on_error(self):
        """An exception inside the runner cancels queued work and then
        joins: no pool worker outlives the ``with`` block."""
        before = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError):
            with ChunkRunner("process", workers=2) as runner:
                assert runner.map(weave, (range(4), range(4))) == [0, 11, 22, 33]
                raise RuntimeError("boom")
        assert set(multiprocessing.active_children()) <= before

    def test_malformed_spec_fails_its_item_only(self):
        """A spec whose own name/build raises (unknown profile) must
        become a failed item, not sink the batch."""
        batch = integrate_many(
            [ScenarioSpec(profile="nope", seed=1), ScenarioSpec(profile="tiny", seed=3)],
            config=quick_config(),
            backend="serial",
        )
        assert [item.ok for item in batch] == [False, True]
        assert "ValueError" in batch.failures[0].error
        assert batch.failures[0].soc_name == "soc[0]"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            integrate_many([build_dsc_chip()], backend="greenlet")

    def test_empty_batch_every_backend(self):
        for backend in ("auto", "serial", "process"):
            batch = integrate_many([], config=quick_config(), backend=backend)
            assert batch.ok and len(batch) == 0
            assert batch.workers >= 1

    def test_spec_items_materialize_in_worker(self):
        specs = [ScenarioSpec(profile="tiny", seed=3), ScenarioSpec("tiny", 4, test_pins=64)]
        batch = integrate_many(specs, config=quick_config(), backend="serial")
        assert batch.ok
        assert [item.soc_name for item in batch] == [s.name for s in specs]
        assert batch.results[1].soc.test_pins == 64

    def test_bad_work_item_becomes_failed_item(self):
        batch = integrate_many(
            [build_dsc_chip(), object()], config=quick_config(), backend="serial"
        )
        assert [item.ok for item in batch] == [True, False]
        assert "TypeError" in batch.failures[0].error

    def test_serial_and_process_results_identical(self):
        """The differential gate: same corpus, same JSON document (modulo
        wall clock and backend tag) from the serial loop and the process
        pool."""
        specs = scenario_specs(3, profiles=("tiny",), base_seed=5)
        config = SteacConfig(compare_strategies=False, verify_schedule=True)
        serial = integrate_many(specs, config=config, workers=2, backend="serial")
        processed = integrate_many(specs, config=config, workers=2, backend="process")
        assert serial.backend == "serial" and processed.backend == "process"
        assert serial.ok and processed.ok
        assert normalize(serial.to_dict()) == normalize(processed.to_dict())

    def test_auto_backend_falls_back_on_unpicklable_items(self):
        """A work item the pool cannot pickle (here: an instance of a
        test-local class) must not sink an ``auto`` batch — it retries
        serially, where per-item isolation still holds — while an
        *explicit* process request surfaces the pool failure (so CI
        smoke runs catch picklability regressions)."""

        class LocalSpec:  # local classes don't pickle
            name = "local"

            def build(self):
                from repro.gen import ScenarioSpec

                return ScenarioSpec(profile="tiny", seed=8).build()

        items = [LocalSpec(), ScenarioSpec(profile="tiny", seed=9)]
        batch = integrate_many(
            items, config=quick_config(), workers=2, backend="auto"
        )
        assert batch.backend == "serial"  # the fallback is visible
        assert batch.ok and len(batch) == 2
        # CPython raises AttributeError ("Can't pickle local object")
        # when the pool serializes the spec
        with pytest.raises((pickle.PicklingError, AttributeError)):
            integrate_many(
                items, config=quick_config(), workers=2, backend="process"
            )

    def test_process_backend_isolates_failures(self):
        socs = [build_dsc_chip(test_pins=28), build_dsc_chip(test_pins=6)]
        batch = integrate_many(
            socs, config=quick_config(), workers=2, backend="process"
        )
        assert [item.ok for item in batch] == [True, False]
        assert batch.failures[0].index == 1

    def test_steac_integrate_many_passes_backend(self):
        batch = Steac(quick_config()).integrate_many(
            [build_dsc_chip(test_pins=28)], backend="serial"
        )
        assert batch.backend == "serial" and batch.ok
