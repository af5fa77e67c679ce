"""Serving-layer performance: cold integrate latency vs warm cache-hit
latency, and cached-job throughput under concurrent clients.

Unlike the pytest-benchmark modules around it, this is a standalone
harness (the quantity under test is a *service* round-trip, not a
library call)::

    PYTHONPATH=src python benchmarks/bench_serve_cache.py [-o BENCH_serve.json]

It boots an in-process server on a loopback port, runs the ISSUE's
acceptance scenario — two identical d695 integrate submissions, the
second answered from the content-addressed cache — and then hammers the
cached entry from 1/4/8 concurrent clients.  The measured numbers land
in ``BENCH_serve.json`` (schema ``repro/bench-serve/v1``), the repo's
performance-trajectory file for the serving layer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import threading
import time

D695_JOB = {"kind": "integrate", "soc": {"name": "d695"}}
WARM_SAMPLES = 20
JOBS_PER_CLIENT = 25
CLIENT_COUNTS = (1, 4, 8)


def measure_latency(client) -> dict:
    """Cold (miss) vs warm (hit) round-trip latency for the d695 job."""
    t0 = time.perf_counter()
    first = client.submit(D695_JOB)
    first = client.wait(first["id"])
    cold_seconds = time.perf_counter() - t0
    assert first["status"] == "done" and first["cached"] is False
    first_text = client.result_text(first["id"])

    warm = []
    for _ in range(WARM_SAMPLES):
        t0 = time.perf_counter()
        job = client.submit(D695_JOB)
        warm.append(time.perf_counter() - t0)
        assert job["status"] == "done" and job["cached"] is True
    # bit-identical guarantee: the hit serves the stored bytes
    assert client.result_text(job["id"]) == first_text

    warm_median = statistics.median(warm)
    return {
        "job": D695_JOB,
        "result_schema": json.loads(first_text)["schema"],
        "cold_ms": round(cold_seconds * 1000, 3),
        "warm_ms": {
            "median": round(warm_median * 1000, 3),
            "min": round(min(warm) * 1000, 3),
            "max": round(max(warm) * 1000, 3),
            "samples": WARM_SAMPLES,
        },
        "speedup": round(cold_seconds / warm_median, 1),
        "bit_identical": True,
    }


def measure_throughput(base_url: str) -> list[dict]:
    """Cached-job round-trips per second at several client counts."""
    from repro.serve import ServeClient

    rows = []
    for clients in CLIENT_COUNTS:
        errors = []

        def hammer():
            local = ServeClient(base_url, timeout=30.0)
            try:
                for _ in range(JOBS_PER_CLIENT):
                    job = local.submit(D695_JOB)
                    if not job["cached"]:
                        raise RuntimeError("expected a cache hit")
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)
            finally:
                local.close()

        threads = [threading.Thread(target=hammer) for _ in range(clients)]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - t0
        if errors:
            raise errors[0]
        jobs = clients * JOBS_PER_CLIENT
        rows.append({
            "clients": clients,
            "jobs": jobs,
            "seconds": round(elapsed, 4),
            "jobs_per_sec": round(jobs / elapsed, 1),
        })
    return rows


def run(out_path: str) -> dict:
    from repro.serve import ServeClient, create_server

    server = create_server(workers=4)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    client = ServeClient(server.url, timeout=60.0)
    client.wait_healthy()
    try:
        latency = measure_latency(client)
        throughput = measure_throughput(server.url)
        stats = client.stats()
    finally:
        client.close()
        server.stop()
        thread.join(timeout=10)

    doc = {
        "schema": "repro/bench-serve/v1",
        "generated": time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime()) + "Z",
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "server_workers": 4,
        },
        "latency": latency,
        "throughput_cached": throughput,
        "cache": {
            key: stats["cache"][key] for key in ("hits", "misses", "entries")
        },
        "acceptance": {
            "speedup_target": 10.0,
            "speedup_measured": latency["speedup"],
            "ok": latency["speedup"] >= 10.0 and latency["bit_identical"],
        },
    }
    with open(out_path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--out", default="BENCH_serve.json",
                        help="output path (default: ./BENCH_serve.json)")
    args = parser.parse_args(argv)
    doc = run(args.out)
    latency = doc["latency"]
    print(f"cold d695 integrate : {latency['cold_ms']:9.1f} ms")
    print(f"warm cache hit      : {latency['warm_ms']['median']:9.2f} ms (median)")
    print(f"speedup             : {latency['speedup']:9.1f} x"
          f"  (target >= {doc['acceptance']['speedup_target']:.0f}x)")
    for row in doc["throughput_cached"]:
        print(f"{row['clients']} client(s)         : {row['jobs_per_sec']:9.1f}"
              f" cached jobs/sec")
    print(f"wrote {args.out}")
    return 0 if doc["acceptance"]["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
