"""Tests for :mod:`repro.obs` — tracing, metrics, and job progress —
plus the instrumentation wired through the pipeline, scheduler, batch
executor, and CLI.

The tracer and registry are process-global singletons; every test that
enables tracing goes through the ``traced`` fixture so the suite always
leaves the tracer disabled and empty, and metric assertions are
delta-based (the registry accumulates across tests by design).
"""

import io
import json
import threading

import pytest

from repro.obs import (
    METRICS,
    TRACER,
    JobProgress,
    MetricsRegistry,
    Tracer,
    disable_tracing,
    enable_tracing,
    load_jsonl,
    prometheus_name,
    span,
    span_tree,
    subtree,
    summarize,
    tracing_enabled,
)


@pytest.fixture()
def traced():
    """Enable the global tracer for one test, guaranteed clean exit."""
    TRACER.clear()
    enable_tracing()
    yield TRACER
    disable_tracing()
    TRACER.clear()


class TestTracerCore:
    def test_disabled_span_is_shared_noop(self):
        assert not tracing_enabled()
        sp1 = span("anything", key="value")
        sp2 = span("other")
        assert sp1 is sp2  # the singleton: no allocation when disabled
        assert sp1.id is None
        with sp1 as inner:
            inner.set(more="attrs")
        assert TRACER.records() == []

    def test_nesting_parents_through_the_stack(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = next(r for r in tracer.records() if r["name"] == "outer")
        inner = next(r for r in tracer.records() if r["name"] == "inner")
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert inner["dur"] <= outer["dur"]

    def test_attrs_from_kwargs_and_set(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("s", soc="d695") as sp:
            sp.set(makespan=41232)
        (record,) = tracer.records()
        assert record["attrs"] == {"soc": "d695", "makespan": 41232}

    def test_explicit_parent_pins(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("root") as root:
            pass
        with tracer.span("child", parent=root.id):
            pass
        child = next(r for r in tracer.records() if r["name"] == "child")
        assert child["parent"] == root.id

    def test_drain_empties(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("a"):
            pass
        drained = tracer.drain()
        assert [r["name"] for r in drained] == ["a"]
        assert tracer.records() == []

    def test_adopt_remaps_ids_and_reparents_roots(self):
        worker = Tracer()
        worker.enable()
        with worker.span("item"):
            with worker.span("stage"):
                pass
        shipped = worker.drain()

        parent = Tracer()
        parent.enable()
        with parent.span("batch") as batch:
            with parent.span("decoy"):
                pass  # burns local ids so worker ids would collide
        parent.adopt(shipped, parent=batch.id)
        records = parent.records()
        item = next(r for r in records if r["name"] == "item")
        stage = next(r for r in records if r["name"] == "stage")
        assert item["parent"] == batch.id  # root re-parented
        assert stage["parent"] == item["id"]  # internal edge preserved
        assert len({r["id"] for r in records}) == len(records)  # no collisions

    def test_concurrent_threads_parent_independently(self):
        tracer = Tracer()
        tracer.enable()
        barrier = threading.Barrier(4)

        def work(i):
            barrier.wait()
            with tracer.span(f"outer-{i}"):
                with tracer.span(f"inner-{i}"):
                    pass

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = tracer.records()
        assert len(records) == 8
        by_name = {r["name"]: r for r in records}
        for i in range(4):
            assert by_name[f"inner-{i}"]["parent"] == by_name[f"outer-{i}"]["id"]


class TestTraceReplay:
    def _sample_tracer(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("root", soc="x"):
            with tracer.span("stage"):
                pass
            with tracer.span("stage"):
                pass
            with tracer.span("other"):
                pass
        return tracer

    def test_jsonl_round_trip(self, tmp_path):
        tracer = self._sample_tracer()
        path = tmp_path / "trace.jsonl"
        count = tracer.export_jsonl(str(path))
        assert count == 4
        assert load_jsonl(str(path)) == tracer.records()

    def test_jsonl_file_object(self):
        tracer = self._sample_tracer()
        buffer = io.StringIO()
        tracer.export_jsonl(buffer)
        buffer.seek(0)
        assert load_jsonl(buffer) == tracer.records()

    def test_span_tree_nests(self):
        tracer = self._sample_tracer()
        (root,) = span_tree(tracer.records())
        assert root["name"] == "root"
        assert [c["name"] for c in root["children"]] == [
            "stage", "stage", "other",
        ]

    def test_subtree_reaches_descendants_only(self):
        tracer = self._sample_tracer()
        records = tracer.records()
        root_id = next(r["id"] for r in records if r["name"] == "root")
        assert {r["name"] for r in subtree(records, root_id)} == {
            "root", "stage", "other",
        }
        stage_id = next(r["id"] for r in records if r["name"] == "stage")
        assert [r["name"] for r in subtree(records, stage_id)] == ["stage"]

    def test_summarize_groups_children_by_name(self):
        tracer = self._sample_tracer()
        records = tracer.records()
        root_id = next(r["id"] for r in records if r["name"] == "root")
        summary = summarize(records, root_id)
        assert summary["name"] == "root"
        assert summary["count"] == 1
        names = {c["name"]: c for c in summary["children"]}
        assert names["stage"]["count"] == 2  # two siblings folded into one
        assert names["other"]["count"] == 1
        stage_seconds = sum(
            r["dur"] for r in records if r["name"] == "stage"
        )
        assert names["stage"]["seconds"] == pytest.approx(
            stage_seconds, abs=1e-5
        )

    def test_summarize_unknown_root_is_none(self):
        assert summarize([], 42) is None


class TestMetricsRegistry:
    def test_counter_inc_get_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("t.hits", "help text")
        c.inc()
        c.inc(2, kind="a")
        assert reg.value("t.hits") == 1
        assert reg.value("t.hits", kind="a") == 2
        assert reg.value("t.hits", kind="missing") == 0

    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("t.c")
        b = reg.counter("t.c")
        assert a is b
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("t.c")

    def test_gauge_sets(self):
        reg = MetricsRegistry()
        g = reg.gauge("t.depth")
        g.set(7)
        g.set(3)
        assert reg.value("t.depth") == 3

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("t.seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            h.observe(value)
        (row,) = h.samples().values()
        assert row[:3] == [1, 2, 3]  # cumulative per-bucket
        assert row[-2] == 4  # +Inf count
        assert row[-1] == pytest.approx(55.55)
        assert h.count() == 4
        assert h.sum() == pytest.approx(55.55)

    def test_prometheus_name_mapping(self):
        assert prometheus_name("cache.scan_time.hits") == \
            "repro_cache_scan_time_hits"
        assert prometheus_name("d695-like.rate") == "repro_d695_like_rate"

    def test_render_prometheus(self):
        reg = MetricsRegistry()
        reg.counter("t.hits", "cache hits").inc(3, cache="scan")
        reg.histogram("t.lat", buckets=(1.0,)).observe(0.5)
        text = reg.render_prometheus()
        assert "# HELP repro_t_hits cache hits" in text
        assert "# TYPE repro_t_hits counter" in text
        assert 'repro_t_hits{cache="scan"} 3' in text
        assert 'repro_t_lat_bucket{le="1.0"} 1' in text
        assert 'repro_t_lat_bucket{le="+Inf"} 1' in text
        assert "repro_t_lat_sum 0.5" in text
        assert "repro_t_lat_count 1" in text
        assert text.endswith("\n")

    def test_render_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("t.c").inc(1, path='a"b\\c')
        text = reg.render_prometheus()
        assert r'path="a\"b\\c"' in text

    def test_collector_and_extra_samples(self):
        reg = MetricsRegistry()
        reg.collector(lambda: [("pulled.value", "gauge", None, 9.0)])
        text = reg.render_prometheus(
            extra=[("inst.jobs", "gauge", {"state": "done"}, 2.0)]
        )
        assert "repro_pulled_value 9" in text
        assert 'repro_inst_jobs{state="done"} 2' in text
        assert reg.snapshot()["pulled.value"] == 9.0

    def test_reset_zeroes_but_keeps_families(self):
        reg = MetricsRegistry()
        c = reg.counter("t.c")
        c.inc(5, kind="x")
        reg.reset()
        assert reg.value("t.c", kind="x") == 0
        assert "t.c" in reg.snapshot()  # family survives

    def test_global_registry_has_scan_time_collector(self):
        # importing the scheduler's time models registers the counters
        import repro.sched.timecalc  # noqa: F401

        snapshot = METRICS.snapshot()
        assert "cache.scan_time.hits" in snapshot
        assert "cache.scan_time.misses" in snapshot


class TestJobProgress:
    def test_lifecycle(self):
        progress = JobProgress()
        assert progress.snapshot() == {
            "total": None, "done": 0, "violations": 0, "failed": 0,
        }
        progress.start(10)
        progress.start(4)  # idempotent-max: never shrinks
        progress.advance()
        progress.advance(2, violations=3, failed=1)
        snap = progress.snapshot()
        assert snap == {"total": 10, "done": 3, "violations": 3, "failed": 1}
        assert progress.done == 3

    def test_threaded_advances_all_land(self):
        progress = JobProgress()
        progress.start(400)

        def bump():
            for _ in range(100):
                progress.advance(violations=1)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert progress.snapshot() == {
            "total": 400, "done": 400, "violations": 400, "failed": 0,
        }


class TestPipelineTracing:
    def _integrate(self):
        from repro.core import Steac, SteacConfig
        from repro.gen import SocGenerator

        soc = SocGenerator(11, "tiny").generate()
        return Steac(SteacConfig(compare_strategies=False)).integrate(soc)

    def test_disabled_trace_is_null(self):
        result = self._integrate()
        assert result.trace is None
        assert result.to_dict()["trace"] is None

    def test_enabled_trace_summarizes_stages(self, traced):
        result = self._integrate()
        trace = result.trace
        assert trace["name"] == "integrate"
        assert trace["count"] == 1
        stage_names = [c["name"] for c in trace["children"]]
        assert stage_names == [
            "pipeline.parse_stil",
            "pipeline.compile_bist",
            "pipeline.schedule",
            "pipeline.insert_dft",
            "pipeline.translate_patterns",
        ]
        child_seconds = sum(c["seconds"] for c in trace["children"])
        assert child_seconds <= trace["seconds"] + 1e-6
        # stages dominate: their sum accounts for nearly all of the root
        assert child_seconds >= 0.5 * trace["seconds"]
        json.dumps(result.to_dict())  # JSON-native by construction

    def test_scheduler_metrics_accumulate(self):
        before_runs = METRICS.value("sched.runs")
        before_moves = METRICS.value("sched.moves.evaluated")
        memo_before = (
            METRICS.value("cache.evaluator_memo.hits")
            + METRICS.value("cache.evaluator_memo.misses")
        )
        self._integrate()
        assert METRICS.value("sched.runs") > before_runs
        assert METRICS.value("sched.moves.evaluated") > before_moves
        assert (
            METRICS.value("cache.evaluator_memo.hits")
            + METRICS.value("cache.evaluator_memo.misses")
        ) > memo_before

    def test_stage_histogram_observes(self):
        before = METRICS.snapshot().get(
            'pipeline.stage.seconds_count{stage="schedule"}', 0
        )
        self._integrate()
        after = METRICS.snapshot()[
            'pipeline.stage.seconds_count{stage="schedule"}'
        ]
        assert after == before + 1


class TestBatchTracing:
    def _specs(self, n=3):
        from repro.gen import ScenarioSpec

        return [ScenarioSpec(profile="tiny", seed=s, index=s) for s in range(n)]

    def test_serial_backend_parents_items(self, traced):
        from repro.core import Steac

        batch = Steac().integrate_many(
            self._specs(), backend="serial", workers=2
        )
        assert batch.ok
        records = TRACER.records()
        run = next(r for r in records if r["name"] == "batch.run")
        items = [r for r in records if r["name"] == "batch.item"]
        assert len(items) == 3
        assert all(r["parent"] == run["id"] for r in items)
        assert sorted(r["attrs"]["index"] for r in items) == [0, 1, 2]

    def test_process_backend_ships_spans_home(self, traced):
        from repro.core import Steac

        batch = Steac().integrate_many(
            self._specs(2), backend="process", workers=2
        )
        assert batch.ok
        assert batch.backend == "process"
        records = TRACER.records()
        run = next(r for r in records if r["name"] == "batch.run")
        items = [r for r in records if r["name"] == "batch.item"]
        assert len(items) == 2
        assert all(r["parent"] == run["id"] for r in items)
        assert sorted(r["attrs"]["seed"] for r in items) == [0, 1]
        # the workers' inner spans (integrate + stages) came along too
        item_ids = {r["id"] for r in items}
        inner = [r for r in records if r["parent"] in item_ids]
        assert inner, "worker-side child spans were not adopted"
        # transport field never leaks into the serialized document
        assert "spans" not in json.dumps(batch.to_dict())

    def test_progress_counts_batch_items(self):
        from repro.core import Steac

        progress = JobProgress()
        batch = Steac().integrate_many(
            self._specs(), backend="serial", progress=progress
        )
        assert batch.ok
        assert progress.snapshot() == {
            "total": 3, "done": 3, "violations": 0, "failed": 0,
        }

    def test_fuzz_progress_counts_scenarios(self):
        from repro.gen.fuzzing import run_fuzz

        progress = JobProgress()
        doc = run_fuzz(
            profile="tiny", seeds=3, backend="serial",
            strategies=["session"], progress=progress,
        )
        snap = progress.snapshot()
        assert snap["total"] == snap["done"] == 3
        assert snap["violations"] == doc["violation_count"]


class TestCliTraceOut:
    def test_dsc_trace_out_replays_to_wall_time(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "dsc.jsonl"
        assert main(["dsc", "--json", "--trace-out", str(path)]) == 0
        captured = capsys.readouterr()
        assert f"wrote" in captured.err and str(path) in captured.err
        doc = json.loads(captured.out)
        assert doc["schema"] == "repro/integration-result/v4"
        assert doc["trace"]["name"] == "integrate"
        (root,) = span_tree(load_jsonl(str(path)))
        assert root["name"] == "integrate"
        stage_sum = sum(c["dur"] for c in root["children"])
        # the five stage spans account for the job's wall time: they sum
        # to within tolerance of the root span, which itself tracks the
        # result's runtime_seconds
        assert stage_sum <= root["dur"] + 1e-6
        assert stage_sum >= 0.5 * root["dur"]
        assert root["dur"] <= doc["runtime_seconds"] + 1e-6
        # the CLI leaves the global tracer off and empty behind it
        assert not tracing_enabled()
        assert TRACER.records() == []

    def test_d695_trace_out_records_search(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "d695.jsonl"
        assert main(["d695", "--json", "--trace-out", str(path)]) == 0
        records = load_jsonl(str(path))
        search = [r for r in records if r["name"] == "sched.session_search"]
        assert search
        attrs = search[0]["attrs"]
        assert attrs["soc"] == "d695"
        assert attrs["makespan"] > 0
        assert attrs["rounds"] >= 1
        assert attrs["memo_hits"] + attrs["memo_misses"] > 0
