"""serve-mixed: one closed-loop client against ``python -m repro serve``.

The server is a child process (one worker, serial backend) with a fresh
``--cache-dir`` and a ``--cache-size`` smaller than the catalog of
distinct jobs.  The client sends the seeded, skewed stream of
``integrate`` jobs from :mod:`inputs`; the first request for a job is a
miss that runs the mid-size flow and writes the cache, every repeat is a
hit answered from the memory or the disk tier.

Timing without quantization: a hit is born ``done``, so its latency is
the ``POST /jobs`` round trip.  A miss's latency is the POST round trip
plus the job document's ``queued_seconds + run_seconds`` (measured by the
server on a monotonic clock) plus the ``GET /jobs/<id>/result`` round
trip, so the client can poll at ``ServeClient.wait``'s pace without that
pace showing up in the number (``serve.miss_ms.p50``).  The end-to-end
``flow_ms.p50`` counts the server's share as the CPU time of its one
worker thread instead (``/proc/<pid>/task/<tid>/schedstat``): the host
deschedules the server for about a fifth of the wall time, in gaps no
reference reading sees.  Every reference reading checks that the
server's CPU time (``/proc/<pid>/stat``) did not advance while it ran.
"""

from __future__ import annotations

import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from calib import Calibrator, percentile, tail_percentile
from common import SETUP_STARTS, CheckError, Context, Outcome, check, summary

from repro.core.results import RESULT_SCHEMA
from repro.serve.client import ServeClient, ServeError

#: Poll interval while a miss runs: ``ServeClient.wait``'s default.
POLL_S = 0.02
STAGES = {"compile_bist": "bist.compile_ms", "schedule": "sched.schedule_ms",
          "insert_dft": "insert_dft_ms", "verify": "verify_ms"}


class Server:
    """``python -m repro serve`` in a child process."""

    def __init__(self, root: Path, workdir: Path, tag: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--workers", "1", "--backend", "serial",
               "--cache-dir", str(workdir / f"cache-{tag}"),
               "--cache-size", str(inputs.SERVE_CACHE_SIZE),
               "--max-jobs", str(inputs.SERVE_MAX_JOBS)]
        self.log_path = workdir / f"server-{tag}.log"
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        self.client: ServeClient | None = None

    def wait_banner(self, timeout: float = 60.0) -> None:
        """Block until the flushed ``repro serve on <url>`` line."""
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("repro serve on "):
            raise RuntimeError(f"server did not start ({line!r}); see {self.log_path}")
        self.client = ServeClient(line.split()[3], timeout=60.0)

    def find_worker(self) -> None:
        """Locate the job worker: with one worker and no request in
        flight it is the server's only thread besides the main one."""
        for _ in range(100):
            tids = [t for t in os.listdir(f"/proc/{self.proc.pid}/task")
                    if t != str(self.proc.pid)]
            if len(tids) == 1:
                self._worker = f"/proc/{self.proc.pid}/task/{tids[0]}/schedstat"
                return
            time.sleep(0.01)
        raise RuntimeError(f"cannot single out the worker among threads {tids}")

    def worker_cpu_s(self) -> float:
        """CPU time the job worker thread has run, in seconds."""
        with open(self._worker) as handle:
            return int(handle.read().split()[0]) / 1e9

    def cpu_ticks(self) -> int:
        """utime + stime of every server thread, in clock ticks."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Drain and shut down over HTTP; kill only if that fails."""
        try:
            if self.client is not None and self.proc.poll() is None:
                self.client.shutdown()
            self.proc.wait(timeout=30)
        except (OSError, ServeError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._log.close()


def _request(client: ServeClient, payload: dict, worker_cpu=None) -> dict:
    """Submit one job and, on a miss, wait for it and fetch its result
    (``worker_cpu``, when given, reads the worker thread's CPU time)."""
    cpu0 = worker_cpu() if worker_cpu else 0.0
    t0 = time.perf_counter()
    text = client.request_text("POST", "/jobs", payload)
    out = {"post_s": time.perf_counter() - t0, "job": json.loads(text), "polls": 0}
    job = out["job"]
    if job["status"] in ("queued", "running"):
        while job["status"] in ("queued", "running"):
            time.sleep(POLL_S)
            job = client.job(job["id"])
            out["polls"] += 1
        t0 = time.perf_counter()
        out["result_text"] = client.result_text(job["id"])
        out["get_s"] = time.perf_counter() - t0
        out["job"] = job
        out["worker_cpu_s"] = worker_cpu() - cpu0 if worker_cpu else 0.0
    return out


def _miss_raw_s(out: dict) -> float:
    timing = out["job"]["timing"]
    return out["post_s"] + timing["queued_seconds"] + timing["run_seconds"] + out["get_s"]


def _miss_cpu_s(out: dict) -> float:
    return out["post_s"] + out["worker_cpu_s"] + out["get_s"]


def _check_result(text: str) -> tuple[int, float, dict]:
    doc = json.loads(text)
    check(doc.get("schema") == RESULT_SCHEMA, f"schema {doc.get('schema')!r}")
    check(doc["schedule"]["total_time"] > 0, "empty schedule")
    if doc.get("verification") is not None:
        check(doc["verification"]["ok"], "verification reported violations")
    area = math.fsum([item["gates"] for item in doc["dft_area"]["items"]]
                     + [w["area_gates"] for w in doc["wrappers"].values()])
    return doc["schedule"]["total_time"], area, doc


def _setup(ctx: Context, starts: int) -> tuple[Server, list[float]]:
    """Time ``starts`` fresh server starts (banner line plus one warm-up
    job each); the last server stays up for the measurement."""
    cal = Calibrator()
    samples = []
    for start in range(starts):
        with cal.bracket() as bracket:
            t0 = time.perf_counter()
            server = Server(ctx.root, ctx.workdir, str(start))
            try:
                server.wait_banner()
                banner_s = time.perf_counter() - t0
                warm = _request(server.client, inputs.SERVE_WARMUP_JOB)
            except BaseException:
                server.stop()
                raise
        if start < starts - 1:
            server.stop()
        check(warm["job"]["status"] == "done" and not warm["job"]["cached"],
              f"warm-up job ended {warm['job']['status']}")
        samples.append(bracket.timed.scale(banner_s + _miss_raw_s(warm)))
    return server, samples


def _metrics_text_values(text: str) -> dict[str, float]:
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, value = line.rsplit(" ", 1)
            values[name] = float(value)
    return values


def _content_address_ms(catalog: dict[str, list[dict]]) -> dict[str, float]:
    """In-process ``content_address`` and ``Soc.digest`` per chip-reference
    form (the named form timed on ``d695``)."""
    from repro.gen import ScenarioSpec
    from repro.serve.keys import normalize_payload
    from repro.serve.runners import content_address

    cal = Calibrator()
    out, digests = {}, []
    for form, name in (("name", "d695"), ("spec", "spec"), ("soc_text", "soc_text")):
        normalized, _ = normalize_payload(catalog[name][0])
        samples = []
        for _ in range(5):
            with cal.bracket() as bracket:
                _, work = content_address(normalized)
            samples.append(bracket.timed.ms)
            soc = work[0].build() if isinstance(work[0], ScenarioSpec) else work[0]
            with cal.bracket() as bracket:
                soc.digest()
            digests.append(bracket.timed.ms)
        out[f"serve.content_address_ms.{form}"] = statistics.median(samples)
    out["soc.digest_ms"] = statistics.median(digests)
    return out


def run(ctx: Context) -> Outcome:
    catalog = inputs.serve_catalog()
    stream = inputs.serve_stream(ctx.seed, ctx.seconds)
    server, setup = _setup(ctx, 1 if ctx.trace else SETUP_STARTS)
    errors: list[str] = []
    try:
        server.find_worker()
        cal = Calibrator(idle_check=server.cpu_ticks)
        client = server.client
        if ctx.trace:
            stats0 = client.stats()
            metrics0 = _metrics_text_values(client.metrics_text())
        reference: dict[tuple[str, int], str] = {}
        exact: dict[tuple[str, int], tuple[int, float]] = {}
        hits, misses = [], []  # (job class, Timed, request outcome[, result])
        for slot in stream:
            job_class, index = slot
            try:
                with cal.bracket() as bracket:
                    out = _request(client, catalog[job_class][index],
                                   server.worker_cpu_s)
                job = out["job"]
                check(job["status"] == "done", f"job {job['id']} ended {job['status']}: "
                      f"{job.get('error')}")
                if slot not in reference:
                    check(not job["cached"], f"first request of {slot} was a hit")
                    cycles, area, doc = _check_result(out["result_text"])
                    reference[slot] = out["result_text"]
                    exact[slot] = (cycles, area)
                    misses.append((job_class, bracket.timed, out, doc))
                else:
                    check(job["cached"] and "result_text" not in out,
                          f"repeat of {slot} was not a cache hit")
                    text = json.dumps(job["result"], indent=2)
                    check(text == reference[slot], f"hit bytes differ for {slot}")
                    hits.append((job_class, bracket.timed, out))
            except (CheckError, ServeError, OSError, KeyError, ValueError) as exc:
                errors.append(f"{slot}: {type(exc).__name__}: {exc}")
        if ctx.trace:
            stats1 = client.stats()
            metrics1 = _metrics_text_values(client.metrics_text())
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    hit_ms = [timed.ms for _, timed, _ in hits]
    miss_ms = [timed.scale(_miss_raw_s(out)) * 1e3 for _, timed, out, _ in misses]
    flow_ms = [timed.scale(_miss_cpu_s(out)) * 1e3 for _, timed, out, _ in misses]
    all_ms = hit_ms + flow_ms
    if ctx.trace:
        metrics = _layer_metrics(catalog, hits, misses, hit_ms, miss_ms,
                                 (stats0, stats1), (metrics0, metrics1))
        metrics["calib.ref_ms"] = cal.ref_median()
        metrics["calib.guard_retries"] = cal.guard_retries
        return Outcome(len(stream), len(errors), metrics, errors=errors)
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "ops_per_s": len(all_ms) / (sum(all_ms) / 1e3) if all_ms else 0.0,
        "op_ms.p50": statistics.median(all_ms) if all_ms else 0.0,
        "flow_ms.p50": statistics.median(flow_ms) if flow_ms else 0.0,
        "test_cycles": sum(cycles for cycles, _ in exact.values()),
        "dft_area_gates": round(math.fsum(area for _, area in exact.values()), 1),
    }
    records = [{"class": name, "hit": True, "ms": t.ms, "raw_ms": t.raw_s * 1e3,
                "ref_ms": t.ref_ms} for name, t, _ in hits]
    records += [{"class": name, "hit": False, "ms": ms, "raw_ms": _miss_raw_s(out) * 1e3,
                 "cpu_ms": cpu, "ref_ms": t.ref_ms}
                for (name, t, out, _), ms, cpu in zip(misses, miss_ms, flow_ms)]
    detail = {
        "requests": len(stream),
        "hits": len(hits),
        "misses": len(misses),
        "raw": {"hit_ms.p50": statistics.median(t.raw_s for _, t, _ in hits) * 1e3
                if hits else 0.0},
        "setup_s": summary(setup),
        "calib.ref_ms": cal.ref_median(),
        "calib.guard_retries": cal.guard_retries,
        "calib.guard_failures": cal.guard_failures,
        "ops": records,
    }
    return Outcome(len(stream), len(errors), metrics, detail, errors)


def _layer_metrics(catalog, hits, misses, hit_ms, miss_ms, stats, scrapes) -> dict:
    n_miss = max(1, len(misses))
    mean = lambda values: sum(values) / len(values) if values else 0.0
    out = {
        "serve.submit_ms": mean([t.scale(o["post_s"]) * 1e3 for _, t, o, _ in misses]),
        "serve.queued_ms": mean([t.scale(o["job"]["timing"]["queued_seconds"]) * 1e3
                                 for _, t, o, _ in misses]),
        "serve.run_ms": mean([t.scale(o["job"]["timing"]["run_seconds"]) * 1e3
                              for _, t, o, _ in misses]),
        "serve.result_get_ms": mean([t.scale(o["get_s"]) * 1e3 for _, t, o, _ in misses]),
        "serve.poll.count": mean([o["polls"] for _, _, o, _ in misses]),
        "serve.miss_ms.p50": statistics.median(miss_ms) if miss_ms else 0.0,
        "serve.hit_ms.p50": statistics.median(hit_ms) if hit_ms else 0.0,
        "serve.hit_ms.p95": (percentile(hit_ms, 95.0)
                             if (tail_percentile(len(hit_ms)) or 0.0) >= 95.0 else 0.0),
        "serve.spec_hit_ms.p50": statistics.median(
            [t.ms for name, t, _ in hits if name == "spec"] or [0.0]),
        "obs.tracing_overhead_pct": 0.0,
    }
    # stage times the server measured for each miss, calibrated with the
    # miss's own reference bracket
    stage_ms = {metric: 0.0 for metric in STAGES.values()}
    attributed = 0.0
    for _, timed, _, doc in misses:
        for stage, seconds in doc["stage_seconds"].items():
            attributed += timed.scale(seconds)
            if stage in STAGES:
                stage_ms[STAGES[stage]] += timed.scale(seconds) * 1e3
    out.update({metric: total / n_miss for metric, total in stage_ms.items()})
    run_ms = sum(t.scale(o["job"]["timing"]["run_seconds"]) * 1e3 for _, t, o, _ in misses)
    total_miss = sum(miss_ms) or 1.0
    out["unattributed_pct"] = 100.0 * (run_ms - attributed * 1e3) / total_miss
    out["self_pct.bist"] = 100.0 * stage_ms["bist.compile_ms"] / total_miss
    out["self_pct.sched"] = 100.0 * stage_ms["sched.schedule_ms"] / total_miss
    out["self_pct.insert_dft"] = 100.0 * stage_ms["insert_dft_ms"] / total_miss
    out["self_pct.verify"] = 100.0 * stage_ms["verify_ms"] / total_miss
    (s0, s1), (m0, m1) = stats, scrapes
    delta = lambda key: s1["cache"][key] - s0["cache"][key]
    lookups = delta("hits") + delta("misses")
    out["cache.result.hit_ratio"] = delta("hits") / lookups if lookups else 0.0
    out["cache.result.disk_hit_share"] = (delta("disk_hits") / delta("hits")
                                          if delta("hits") else 0.0)
    out["cache.result.evictions"] = delta("evictions")
    scan = lambda key: s1["scan_time_cache"][key] - s0["scan_time_cache"][key]
    scans = scan("hits") + scan("misses")
    out["cache.scan_time.hit_ratio"] = scan("hits") / scans if scans else 0.0
    metric = lambda name: m1.get(name, 0.0) - m0.get(name, 0.0)
    for name in ("sched.moves.evaluated", "sched.moves.pruned", "sched.rounds"):
        out[name] = metric("repro_" + name.replace(".", "_")) / n_miss
    memo_hits = metric("repro_cache_evaluator_memo_hits")
    memo_all = memo_hits + metric("repro_cache_evaluator_memo_misses")
    out["cache.evaluator_memo.hit_ratio"] = memo_hits / memo_all if memo_all else 0.0
    out.update(_content_address_ms(catalog))
    return out
