"""Benchmark of the STEAC platform: three workloads, calibrated host times.

    python3 perfbench/run.py --workload sweep-large|serve-mixed|campaign-tiny \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the platform is imported from its
``src/``.  ``--seed`` orders the workload's inputs (see ``inputs.py``),
``--seconds`` sizes them.  With ``--trace 0`` the last line of standard
output is the JSON result with every end-to-end metric; with
``--trace 1`` it carries every per-layer metric instead, from a separate
traced run.  The line before it holds the run's detail (raw, uncalibrated
figures and the reference-loop time); ``.perfbench_out/`` keeps it with
the per-op records and the traced run's span JSONL.  ``spec.py``
documents the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    from spec import END_TO_END, PER_LAYER, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no {src / 'repro'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2

    from common import Context

    if args.workload == "sweep-large":
        import sweep_large as workload
    elif args.workload == "serve-mixed":
        import serve_mixed as workload
    else:
        import campaign_tiny as workload

    outdir = ROOT / ".perfbench_out"
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    outdir.mkdir(exist_ok=True)
    workdir.mkdir(parents=True)
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace),
                  ROOT, workdir, outdir)
    try:
        outcome = workload.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    catalog = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": outcome.metrics.get(name, 0.0), "unit": unit}
               for name, unit, *_ in catalog}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **outcome.detail, "errors": outcome.errors[:20]}
    with open(outdir / f"detail-{args.workload}-s{args.seed}-t{args.trace}.json", "w") as handle:
        json.dump(detail, handle, indent=2, sort_keys=True)
    detail.pop("ops", None)  # per-op records stay in the file
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
