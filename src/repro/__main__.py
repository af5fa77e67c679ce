"""Command-line front end: ``python -m repro <command>`` (or the
``repro`` console script).

BRAINS "can generate the BIST circuit using the GUI or command shell";
this is the command shell for the whole reproduction:

* ``python -m repro dsc``            — integrate the DSC chip, print the report
* ``python -m repro dsc --json``     — machine-readable integration result
* ``python -m repro dsc --verilog``  — also dump the DFT-inserted Verilog
* ``python -m repro batch``          — integrate many SOCs concurrently
  (``--backend auto|serial|process`` picks the executor)
* ``python -m repro march``          — list the March algorithm library
* ``python -m repro coverage``       — March fault-coverage table
* ``python -m repro d695 [pins]``    — schedule the ITC'02 d695 benchmark
* ``python -m repro repair``         — memory diagnosis, repair, and yield
* ``python -m repro strategies``     — list every registered strategy name
* ``python -m repro generate``       — emit a synthetic SOC (``.soc`` or JSON)
* ``python -m repro fuzz``           — differentially test every scheduler
  over a generated corpus, checking the :mod:`repro.verify` invariants
* ``python -m repro campaign``       — resumable checkpointed fuzz soaks
  (``run`` / ``resume`` / ``status`` / ``replay``); survives Ctrl-C and
  ``kill -9``, dedupes findings, shrinks failures to minimal repro chips
* ``python -m repro serve``          — HTTP job queue with a result cache
* ``python -m repro metrics``        — scrape a running server's /metrics

``dsc``, ``d695``, ``batch``, and ``fuzz`` accept ``--trace-out FILE``
to record :mod:`repro.obs` spans for the run and dump them as JSONL
(replay with :func:`repro.obs.load_jsonl` / :func:`repro.obs.span_tree`).

Scheduling strategies everywhere resolve by name through
:mod:`repro.sched.registry` — ``--strategy ilp`` runs the exact MILP —
repair allocators through :mod:`repro.repair.registry`, and generator
profiles through :mod:`repro.gen.profiles`; the ``strategies`` command
prints the first two registries.

Batch specs also accept generated chips: ``gen-<profile>-<seed>`` (e.g.
``gen-tiny-7:48`` for seed 7 of the ``tiny`` profile at 48 pins).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

from repro.util import document_text


@contextlib.contextmanager
def _maybe_trace(args: argparse.Namespace):
    """Honour ``--trace-out FILE``: enable :mod:`repro.obs` tracing for
    the command's duration and export the recorded spans as JSONL on the
    way out (stderr note, so ``--json`` stdout stays machine-readable)."""
    path = getattr(args, "trace_out", None)
    if not path:
        yield
        return
    from repro.obs import TRACER, disable_tracing, enable_tracing

    enable_tracing()
    try:
        yield
    finally:
        count = len(TRACER.records())
        TRACER.export_jsonl(path)
        disable_tracing()
        TRACER.clear()
        print(f"wrote {count} span(s) to {path}", file=sys.stderr)


#: The sweep definition ``fuzz`` and ``campaign run`` share: the
#: options :func:`_add_sweep_options` declares, passed on as keywords.
_SWEEP_OPTIONS = (
    "profile", "seeds", "seed_base", "strategies", "ilp_max_tasks", "workers",
    "backend",
)


def _add_sweep_options(
    parser: argparse.ArgumentParser,
    seeds: int,
    profiles: list[str],
    strategies: list[str],
) -> None:
    """Declare the sweep options on ``parser``, with ``seeds`` chips by
    default."""
    from repro.core.batch import BACKENDS

    parser.add_argument("--seeds", type=int, default=seeds,
                        help="number of generated chips (one seed each)")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="first seed of the corpus")
    parser.add_argument("--profile", choices=profiles, default="tiny",
                        help="generator profile for the corpus")
    parser.add_argument("--strategies", nargs="*", choices=strategies,
                        default=None, metavar="STRATEGY",
                        help="strategies to race (default: every registered one)")
    parser.add_argument("--ilp-max-tasks", type=int, default=6,
                        help="skip the exact MILP above this task count")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for the sweep (default: 1)")
    parser.add_argument("--backend", choices=BACKENDS, default="auto",
                        help="executor backend for the sweep")


def _sweep_kwargs(args: argparse.Namespace) -> dict:
    return {name: getattr(args, name) for name in _SWEEP_OPTIONS}


def _finite_float(text: str) -> float:
    """``float(text)`` refusing ``nan`` and ``inf``, which would run and print non-JSON."""
    with contextlib.suppress(ValueError):
        if math.isfinite(value := float(text)):
            return value
    raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")


def _resolve(ref: dict, what: str):
    """:func:`repro.gen.corpus.work_item`, exiting with ``<what>: <reason>``
    (no traceback) when ``ref`` names no valid chip or budget."""
    from repro.gen.corpus import work_item

    try:
        return work_item(ref)
    except ValueError as exc:
        raise SystemExit(f"{what}: {exc}") from None


def _build_work_item(spec: str):
    """Parse a batch SOC spec ``name[:pins[:power]]`` and resolve it.

    Names: ``dsc`` (the paper's case-study chip), ``d695`` (ITC'02), or
    ``gen-<profile>-<seed>`` for a synthetic chip from :mod:`repro.gen`.
    Examples: ``dsc``, ``dsc:24``, ``dsc:28:6.5``, ``d695:48``,
    ``gen-tiny-7``, ``gen-d695-like-3:48``.

    Only the grammar lives here: the chip comes from
    :func:`repro.gen.corpus.work_item`, serve's resolver.  Named chips
    materialize; generated chips come back as
    :class:`repro.gen.ScenarioSpec` coordinates so batch workers (in
    particular the process backend) generate them on their side of the
    boundary instead of unpickling a live model.  A spec that names no
    valid chip, a bad budget included, exits with ``bad SOC spec``.
    """
    name, *fields = spec.split(":")
    try:
        if len(fields) > 2:
            raise ValueError("too many fields")
        ref = {
            "test_pins": int(fields[0]) if fields else None,
            "power_budget": _finite_float(fields[1]) if len(fields) > 1 else None,
        }
        if name.startswith("gen-"):
            profile, _, seed = name[4:].rpartition("-")
            ref["spec"] = {"profile": profile, "seed": int(seed)}
        else:
            ref["name"] = name
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise SystemExit(
            f"bad SOC spec {spec!r}: {exc} (format: name[:pins[:power]]; name "
            "dsc, d695 or gen-<profile>-<seed>, pins an int, power a finite float)"
        ) from None
    return _resolve(ref, f"bad SOC spec {spec!r}")


def _cmd_dsc(args: argparse.Namespace) -> int:
    from repro.core import Steac, SteacConfig

    if args.json and args.verilog == "-":
        raise SystemExit(
            "--json keeps stdout machine-readable; give --verilog a FILE"
        )
    config = SteacConfig(bist_power_headroom=args.headroom, strategy=args.strategy)
    ref = {"name": "dsc", "test_pins": args.pins, "power_budget": args.power}
    result = Steac(config).integrate(_resolve(ref, "dsc"))
    if args.json:
        print(result.to_json())
    else:
        print(result.report())
    if args.verilog:
        from repro.netlist import netlist_to_verilog

        text = netlist_to_verilog(result.netlist)
        if args.verilog == "-":
            print(text)
        else:
            with open(args.verilog, "w") as handle:
                handle.write(text)
            if not args.json:
                print(f"\nwrote {len(text.splitlines()):,} lines to {args.verilog}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.core import Steac, SteacConfig

    specs = args.socs or ["dsc:24", "dsc:28", "dsc:36", "dsc:48"]
    items = [_build_work_item(spec) for spec in specs]
    config = SteacConfig(strategy=args.strategy, compare_strategies=False,
                         verify_schedule=args.verify)
    batch = Steac(config).integrate_many(
        items, workers=args.workers, backend=args.backend
    )
    if args.json:
        print(batch.to_json())
    else:
        print(batch.render())
    return 0 if batch.ok else 1


def _cmd_march(args: argparse.Namespace) -> int:
    from repro.bist import ALGORITHMS, with_retention

    for march in ALGORITHMS:
        print(f"{march.name:<10} {march.complexity:>3}N   {march.format()}")
    if args.retention:
        print()
        for march in ALGORITHMS:
            try:
                variant = with_retention(march)
                print(f"{variant.name:<15} {variant.format()}")
            except ValueError:
                pass
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    from repro.bist import ALGORITHMS, coverage_table

    if args.size < 2:
        raise SystemExit(f"--size must be at least 2, got {args.size}")
    if args.pairs < 0:
        raise SystemExit(f"--pairs must be non-negative, got {args.pairs}")
    print(coverage_table(list(ALGORITHMS), size=args.size, coupling_pairs=args.pairs).render())
    return 0


def _cmd_d695(args: argparse.Namespace) -> int:
    from repro.sched import resolve_schedule, tasks_from_soc

    soc = _resolve({"name": "d695", "test_pins": args.pins}, "d695")
    result = resolve_schedule(args.strategy, soc, tasks_from_soc(soc))
    if args.json:
        print(document_text(
            {"schema": "repro/schedule-result/v1", "soc": soc.name, **result.to_dict()}
        ))
    else:
        print(result.render())
    return 0


def _cmd_strategies(args: argparse.Namespace) -> int:
    from repro.repair.registry import available_allocators
    from repro.sched.registry import available_strategies

    print("scheduling strategies (repro.sched.registry):")
    for name in available_strategies():
        print(f"  {name}")
    print("repair allocators (repro.repair.registry):")
    for name in available_allocators():
        print(f"  {name}")
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    """Close the loop for one chip: inject seeded defects into every
    memory, diagnose with a real March run, allocate spares, and score
    the design with a Monte-Carlo repair-rate estimate (the report body
    lives in :mod:`repro.repair.service`, shared with ``repro serve``)."""
    from repro.repair.service import render_repair_report, repair_report

    soc = _resolve({"name": args.soc}, args.soc)
    doc = repair_report(
        soc,
        seed=args.seed,
        trials=args.trials,
        workers=args.workers or 0,
        allocator=args.allocator,
        defects=args.defects,
        defect_density=args.defect_density,
        spare_rows=args.spare_rows,
        spare_cols=args.spare_cols,
        model_rows=args.model_rows,
    )
    if args.json:
        print(document_text(doc))
    else:
        print(render_repair_report(doc))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    """Emit synthetic SOCs: ``.soc`` exchange text by default, or a JSON
    document carrying both the summary and the text."""
    from repro.gen import SocGenerator, soc_to_text

    if args.count < 1:
        raise SystemExit(f"--count must be at least 1, got {args.count}")
    generator = SocGenerator(args.seed, args.profile)
    socs = [generator.generate(i) for i in range(args.count)]
    if args.json:
        text = document_text({
            "schema": "repro/generated-soc/v1",
            "profile": args.profile,
            "seed": args.seed,
            "socs": [
                {
                    "name": soc.name,
                    "cores": len(soc.cores),
                    "memories": len(soc.memories),
                    "test_pins": soc.test_pins,
                    "power_budget": soc.power_budget,
                    "total_gates": soc.total_gates,
                    "memory_bits": soc.total_memory_bits,
                    "soc_text": soc_to_text(soc),
                }
                for soc in socs
            ],
        }) + "\n"
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
            print(f"wrote {len(socs)} SOC(s) to {args.out}")
        else:
            print(text, end="")
        return 0
    # .soc text: one document per chip — concatenating them would merge
    # into a single mis-parsed chip, so count > 1 writes one file each
    if len(socs) > 1 and not args.out:
        raise SystemExit(
            "--count > 1 needs --json (one document) or --out "
            "(one .soc file per chip)"
        )
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        written = []
        for index, soc in enumerate(socs):
            path = (
                args.out if len(socs) == 1
                else str(out.with_name(f"{out.stem}_{index}{out.suffix}"))
            )
            with open(path, "w") as handle:
                handle.write(soc_to_text(soc))
            written.append(path)
        print(f"wrote {len(socs)} SOC(s) to {', '.join(written)}")
        for soc in socs:
            print(f"  {soc.describe()}")
    else:
        print(soc_to_text(socs[0]), end="")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzzing: every strategy over a generated corpus,
    every schedule invariant-checked, every chip round-tripped through
    the ITC'02 writer/parser (the sweep itself lives in
    :mod:`repro.gen.fuzzing`, shared with ``repro serve``).  Exit 1 on
    any violation."""
    from repro.gen.fuzzing import cell_outcome, run_fuzz
    from repro.util import Table

    if args.seeds < 1:
        raise SystemExit(f"--seeds must be at least 1, got {args.seeds}")
    report = run_fuzz(**_sweep_kwargs(args))
    strategies = report["strategies"]
    scenario_docs = report["scenarios"]
    violation_count = report["violation_count"]
    ok = report["ok"]
    if args.json:
        print(document_text(report))
        return 0 if ok else 1
    table = Table(
        ["SOC", "Tasks", "LB"] + strategies + ["Roundtrip"],
        title=f"differential fuzz: {args.seeds} x {args.profile!r} seeds "
        f"{args.seed_base}..{args.seed_base + args.seeds - 1}",
    )
    marks = {"skipped": "skip", "infeasible": "INFEASIBLE",
             "crashed": "CRASHED", "violated": "VIOLATED"}
    for doc in scenario_docs:
        row = [doc["soc"], doc["tasks"], doc["lower_bound"]]
        for strategy in strategies:
            cell = doc["strategies"][strategy]
            outcome = cell_outcome(cell)
            row.append(cell["total_time"] if outcome == "ok" else marks[outcome])
        row.append("ok" if doc["roundtrip_ok"] else "FAIL")
        table.add_row(row)
    print(table.render())
    verdict = "clean" if ok else f"{violation_count} violations"
    if report["warning_count"]:
        verdict += f" ({report['warning_count']} warnings)"
    print(f"\n{len(scenario_docs)} SOCs x {len(strategies)} strategies: {verdict}")
    if not ok:
        for doc in scenario_docs:
            for strategy, cell in doc["strategies"].items():
                for violation in cell.get("errors", []):
                    print(f"  {doc['soc']} [{strategy}] {violation['rule']}"
                          f"({violation['subject']}): {violation['message']}")
                if "infeasible" in cell:
                    print(f"  {doc['soc']} [{strategy}] infeasible: {cell['infeasible']}")
                if "crashed" in cell:
                    print(f"  {doc['soc']} [{strategy}] crashed: {cell['crashed']}")
            for error in doc["roundtrip_errors"]:
                print(f"  {doc['soc']} [roundtrip] {error}")
        print(f"reproduce a chip with: python -m repro generate "
              f"--profile {args.profile} --seed <seed>")
    return 0 if ok else 1


def _render_campaign_report(report: dict) -> str:
    """Human-readable campaign summary (the non-``--json`` output of
    ``repro campaign run/resume``)."""
    from repro.util import Table

    lines = [
        f"campaign: {report['seeds']} x {report['profile']!r} seeds "
        f"{report['seed_base']}..{report['seed_base'] + report['seeds'] - 1}, "
        f"{report['backend']} backend ({report['workers']} workers), "
        f"chunks of {report['chunk_size']}",
        f"scenarios: {report['scenarios']}  violations: "
        f"{report['violation_count']}  warnings: {report['warning_count']}  "
        f"findings: {len(report['findings'])} "
        f"(+{report['duplicates']} duplicates)  "
        f"resumes: {report['runtime']['resumes']}  "
        f"elapsed: {report['runtime']['elapsed_seconds']:.2f} s",
    ]
    if report["findings"]:
        table = Table(
            ["#", "Strategy", "Rule", "Seed", "Minimized", "Repro"],
            title="deduplicated findings (rule, strategy, minimized-chip digest)",
        )
        for finding in report["findings"]:
            shape = finding["minimized"]
            table.add_row([
                finding["index"],
                finding["strategy"],
                finding["rule"],
                finding["seed"],
                f"{shape['cores']}c/{shape['memories']}m @{shape['test_pins']}p",
                finding["file"],
            ])
        lines.append(table.render())
    verdict = "clean" if report["ok"] else f"{report['violation_count']} violations"
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines)


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Resumable checkpointed fuzz soaks (:mod:`repro.gen.campaign`):
    ``run`` starts a fresh campaign directory, ``resume`` continues an
    interrupted one (after Ctrl-C, ``kill -9``, or ``--max-chunks``),
    ``status`` snapshots progress, ``replay`` re-runs one emitted
    ``.soc`` repro file and checks the violation still fires."""
    from repro.gen.campaign import (
        Campaign,
        CampaignInterrupted,
        campaign_status,
        replay_repro,
        resume_campaign,
        run_campaign,
    )

    try:
        if args.action == "status":
            doc = campaign_status(args.dir)
            if args.json:
                print(document_text(doc))
            else:
                state = "complete" if doc["complete"] else "in progress"
                print(f"campaign {args.dir}: {state}, {doc['done']}/{doc['total']} "
                      f"scenarios, {doc['violation_count']} violations, "
                      f"{doc['findings']} findings (+{doc['duplicates']} "
                      f"duplicates), {doc['resumes']} resumes")
            return 0
        if args.action == "replay":
            doc = replay_repro(args.dir)
            if args.json:
                print(document_text(doc))
            else:
                sig = doc["signature"]
                verdict = "fires" if doc["fires"] else "DOES NOT FIRE"
                print(f"{doc['file']}: {sig['strategy']}/{sig['kind']}"
                      f"{':' + sig['rule'] if sig['rule'] else ''} {verdict} "
                      f"on {doc['soc']} ({doc['digest'][:12]})")
            return 0 if doc["fires"] else 1
        if args.action == "resume":
            report = resume_campaign(args.dir, max_chunks=args.max_chunks)
        else:
            report = run_campaign(
                args.dir,
                chunk_size=args.chunk_size,
                max_chunks=args.max_chunks,
                **_sweep_kwargs(args),
            )
    except CampaignInterrupted as exc:
        status = Campaign.open(args.dir).status()
        print(f"{exc} ({status['done']}/{status['total']} scenarios done)",
              file=sys.stderr)
        return 3
    except (FileExistsError, FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    if args.json:
        print(document_text(report))
    else:
        print(_render_campaign_report(report))
    return 0 if report["ok"] else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """detlint (:mod:`repro.analysis`): statically machine-check the
    repo's determinism, picklability, lock-discipline, and schema-
    version contracts.  Exit 1 on errors, 0 clean."""
    from repro.analysis import available_rules, get_rule, lint_paths
    from repro.analysis.report import render_human, render_json

    if args.list_rules:
        for rule_id in available_rules():
            rule = get_rule(rule_id)
            print(f"{rule_id:<8} {rule.severity:<8} {rule.description}")
        return 0
    paths = args.paths or ["src"]
    try:
        report = lint_paths(
            paths,
            root=args.root,
            rules=args.rules,
            update_fingerprints=args.update_fingerprints,
        )
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    text = render_json(report) if args.json else render_human(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        if not args.json:
            print(text)
    else:
        print(text)
    if args.update_fingerprints:
        print("schema fingerprints regenerated", file=sys.stderr)
    return report.exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the integration service (:mod:`repro.serve`): an HTTP job
    queue over integrate/batch/fuzz/repair with a content-addressed
    result cache.  Serves until Ctrl-C or ``POST /shutdown``, draining
    in-flight jobs on the way out."""
    from repro.serve import DEFAULT_MAX_JOBS, create_server

    if args.max_jobs is None:
        max_jobs = DEFAULT_MAX_JOBS
    else:
        max_jobs = args.max_jobs if args.max_jobs > 0 else None

    server = create_server(
        host=args.host,
        port=args.port,
        workers=args.workers,
        backend=args.backend,
        cache_dir=args.cache_dir,
        cache_capacity=args.cache_size,
        verbose=args.verbose,
        max_jobs=max_jobs,
    )
    cache = f", cache dir {args.cache_dir}" if args.cache_dir else ""
    # flush so a parent process reading our pipe learns the bound port
    # (--port 0) before the first request
    print(
        f"repro serve on {server.url} "
        f"({args.workers} worker(s), backend {args.backend or 'auto'}{cache})",
        flush=True,
    )
    print(
        "POST /jobs to submit; Ctrl-C or POST /shutdown to drain and exit",
        flush=True,
    )
    server.run()
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Print a running server's Prometheus exposition (``GET /metrics``)
    — the shell-side twin of pointing a scraper at the service."""
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.url, timeout=10.0)
    try:
        print(client.metrics_text(), end="")
    except (ServeError, OSError) as exc:
        print(f"cannot fetch {args.url}/metrics: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    from repro.core.batch import BACKENDS
    from repro.gen.corpus import NAMED_CHIPS
    from repro.gen.profiles import PROFILES
    from repro.repair.registry import ALLOCATORS
    from repro.sched.registry import STRATEGIES

    strategies = STRATEGIES.names()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STEAC SOC test integration platform (Wu, DATE 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dsc = sub.add_parser("dsc", help="integrate the DSC case-study chip")
    p_dsc.add_argument("--pins", type=int, default=28, help="tester pin budget")
    p_dsc.add_argument("--power", type=_finite_float, default=8.0, help="power budget")
    p_dsc.add_argument("--strategy", choices=strategies, default="session",
                       help="scheduling strategy (registry name)")
    p_dsc.add_argument("--headroom", action="store_true",
                       help="enable BIST power-headroom co-optimization")
    p_dsc.add_argument("--json", action="store_true",
                       help="emit the machine-readable integration result")
    p_dsc.add_argument("--verilog", metavar="FILE", nargs="?", const="-",
                       help="dump DFT-inserted Verilog (to FILE or stdout)")
    p_dsc.add_argument("--trace-out", metavar="FILE",
                       help="record repro.obs spans and write them as JSONL")
    p_dsc.set_defaults(func=_cmd_dsc)

    p_batch = sub.add_parser(
        "batch", help="integrate many SOCs concurrently (specs: name[:pins[:power]])"
    )
    p_batch.add_argument("socs", nargs="*", metavar="SPEC",
                         help="SOC specs, e.g. dsc:24 dsc:28 d695:48 "
                              "(default: a DSC pin-budget sweep)")
    p_batch.add_argument("--workers", type=int, default=None,
                         help="worker count (default: one per SOC, capped at CPUs)")
    p_batch.add_argument("--backend", choices=BACKENDS, default="auto",
                         help="executor backend (auto picks serial for trivial "
                              "batches, process otherwise)")
    p_batch.add_argument("--strategy", choices=strategies, default="session",
                         help="scheduling strategy (registry name)")
    p_batch.add_argument("--json", action="store_true",
                         help="emit the machine-readable batch result")
    p_batch.add_argument("--verify", action="store_true",
                         help="invariant-check every schedule (exit 1 on violations)")
    p_batch.add_argument("--trace-out", metavar="FILE",
                         help="record repro.obs spans and write them as JSONL")
    p_batch.set_defaults(func=_cmd_batch)

    p_march = sub.add_parser("march", help="list the March algorithm library")
    p_march.add_argument("--retention", action="store_true",
                         help="also show data-retention variants")
    p_march.set_defaults(func=_cmd_march)

    p_cov = sub.add_parser("coverage", help="March fault-coverage table")
    p_cov.add_argument("--size", type=int, default=12, help="array cells")
    p_cov.add_argument("--pairs", type=int, default=12, help="sampled coupling pairs")
    p_cov.set_defaults(func=_cmd_coverage)

    p_d695 = sub.add_parser("d695", help="schedule the ITC'02 d695 benchmark")
    p_d695.add_argument("--pins", type=int, default=48, help="tester pin budget")
    p_d695.add_argument("--strategy", choices=strategies, default="session",
                        help="scheduling strategy (registry name)")
    p_d695.add_argument("--json", action="store_true",
                        help="emit the machine-readable schedule result")
    p_d695.add_argument("--trace-out", metavar="FILE",
                        help="record repro.obs spans and write them as JSONL")
    p_d695.set_defaults(func=_cmd_d695)

    p_repair = sub.add_parser(
        "repair", help="memory diagnosis, redundancy allocation, and repair rate"
    )
    p_repair.add_argument("--soc", choices=sorted(NAMED_CHIPS), default="dsc",
                          help="chip to analyze")
    p_repair.add_argument("--seed", type=int, default=7,
                          help="defect-injection base seed")
    p_repair.add_argument("--trials", type=int, default=500,
                          help="Monte-Carlo chips sampled")
    p_repair.add_argument("--workers", type=int, default=None,
                          help="Monte-Carlo process count (default: serial)")
    p_repair.add_argument("--allocator", choices=ALLOCATORS.names(), default="greedy",
                          help="repair allocator (registry name)")
    p_repair.add_argument("--defects", type=int, default=3,
                          help="defects injected per memory in the diagnosis table")
    p_repair.add_argument("--defect-density", type=_finite_float, default=0.3,
                          help="mean defects per Mbit (Monte-Carlo section)")
    p_repair.add_argument("--spare-rows", type=int, default=None,
                          help="spare rows per memory (default: 2)")
    p_repair.add_argument("--spare-cols", type=int, default=None,
                          help="spare columns per memory (default: 2)")
    p_repair.add_argument("--model-rows", type=int, default=32,
                          help="word-line cap for the modelled arrays")
    p_repair.add_argument("--json", action="store_true",
                          help="emit the machine-readable repair report")
    p_repair.set_defaults(func=_cmd_repair)

    p_strat = sub.add_parser(
        "strategies", help="list registered scheduling strategies and repair allocators"
    )
    p_strat.set_defaults(func=_cmd_strategies)

    profiles = PROFILES.names()
    p_gen = sub.add_parser(
        "generate", help="generate synthetic SOCs (repro.gen), in .soc format"
    )
    p_gen.add_argument("--seed", type=int, default=0, help="generator seed")
    p_gen.add_argument("--profile", choices=profiles, default="small",
                       help="size/shape profile (registry name)")
    p_gen.add_argument("--count", type=int, default=1,
                       help="chips to emit (stream indices 0..count-1)")
    p_gen.add_argument("--out", metavar="FILE", help="write .soc text to FILE")
    p_gen.add_argument("--json", action="store_true",
                       help="emit a machine-readable document instead of .soc text")
    p_gen.set_defaults(func=_cmd_generate)

    p_fuzz = sub.add_parser(
        "fuzz", help="differentially fuzz every scheduler over generated SOCs"
    )
    _add_sweep_options(p_fuzz, 20, profiles, strategies)
    p_fuzz.add_argument("--json", action="store_true",
                        help="emit the machine-readable fuzz report")
    p_fuzz.add_argument("--trace-out", metavar="FILE",
                        help="record repro.obs spans and write them as JSONL")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_campaign = sub.add_parser(
        "campaign",
        help="resumable checkpointed fuzz soaks (run / resume / status / replay)",
    )
    campaign_sub = p_campaign.add_subparsers(dest="action", required=True)

    pc_run = campaign_sub.add_parser(
        "run", help="start a fresh campaign in DIR (checkpointed per chunk)"
    )
    pc_run.add_argument("dir", help="campaign directory (created; must not "
                                    "already hold a campaign)")
    _add_sweep_options(pc_run, 1000, profiles, strategies)
    pc_run.add_argument("--chunk-size", type=int, default=200,
                        help="scenarios per checkpoint barrier")
    pc_run.add_argument("--max-chunks", type=int, default=None,
                        help="pause (exit 3) after this many chunks — a "
                             "deterministic interrupt for smoke tests")
    pc_run.add_argument("--json", action="store_true",
                        help="emit the machine-readable campaign report")
    pc_run.set_defaults(func=_cmd_campaign, action="run")

    pc_resume = campaign_sub.add_parser(
        "resume", help="continue an interrupted campaign from its checkpoint"
    )
    pc_resume.add_argument("dir", help="existing campaign directory")
    pc_resume.add_argument("--max-chunks", type=int, default=None,
                           help="pause again (exit 3) after this many chunks")
    pc_resume.add_argument("--json", action="store_true",
                           help="emit the machine-readable campaign report")
    pc_resume.set_defaults(func=_cmd_campaign, action="resume")

    pc_status = campaign_sub.add_parser(
        "status", help="snapshot a campaign's checkpointed progress"
    )
    pc_status.add_argument("dir", help="existing campaign directory")
    pc_status.add_argument("--json", action="store_true",
                           help="emit the machine-readable status document")
    pc_status.set_defaults(func=_cmd_campaign, action="status")

    pc_replay = campaign_sub.add_parser(
        "replay", help="re-run one findings/*.soc repro file standalone "
                       "(exit 1 if the violation no longer fires)"
    )
    pc_replay.add_argument("dir", metavar="FILE", help="repro .soc file "
                           "emitted by a campaign")
    pc_replay.add_argument("--json", action="store_true",
                           help="emit the machine-readable replay document")
    pc_replay.set_defaults(func=_cmd_campaign, action="replay")

    p_lint = sub.add_parser(
        "lint",
        help="detlint: static determinism/concurrency contract checks "
             "(exit 1 on errors)",
    )
    p_lint.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories to lint (default: src)")
    p_lint.add_argument("--root", default=".",
                        help="repository root (for the committed schema-"
                             "fingerprint file)")
    p_lint.add_argument("--rules", nargs="*", default=None, metavar="RULE",
                        help="rule ids to run (default: every registered rule)")
    p_lint.add_argument("--list", dest="list_rules", action="store_true",
                        help="list registered rules and exit")
    p_lint.add_argument("--json", action="store_true",
                        help="emit the machine-readable repro/lint-report/v1 "
                             "document")
    p_lint.add_argument("--out", metavar="FILE",
                        help="also write the report to FILE")
    p_lint.add_argument("--update-fingerprints", action="store_true",
                        help="regenerate src/repro/analysis/schema_"
                             "fingerprints.json from the tree")
    p_lint.set_defaults(func=_cmd_lint)

    p_serve = sub.add_parser(
        "serve", help="run the HTTP job-queue service with a result cache"
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: loopback only)")
    p_serve.add_argument("--port", type=int, default=8750,
                         help="bind port (0 picks a free one)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="concurrent jobs (each job parallelizes "
                              "internally via --backend)")
    p_serve.add_argument("--backend", choices=BACKENDS, default=None,
                         help="default executor backend for submitted jobs")
    p_serve.add_argument("--cache-dir", default=None,
                         help="persist cached results to this directory")
    p_serve.add_argument("--cache-size", type=int, default=256,
                         help="in-memory result-cache entries")
    p_serve.add_argument("--max-jobs", type=int, default=None,
                         help="retained job records; terminal jobs past the "
                              "cap are evicted LRU-first (default 4096, "
                              "0 = unbounded)")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every HTTP request to stderr")
    p_serve.set_defaults(func=_cmd_serve)

    p_metrics = sub.add_parser(
        "metrics", help="fetch a running server's /metrics exposition"
    )
    p_metrics.add_argument("--url", default="http://127.0.0.1:8750",
                           help="base URL of the repro serve instance")
    p_metrics.set_defaults(func=_cmd_metrics)

    args = parser.parse_args(argv)
    try:
        with _maybe_trace(args):
            return args.func(args)
    except KeyboardInterrupt:
        # Ctrl-C is a normal way to stop a long sweep or campaign: no
        # traceback, the conventional 128+SIGINT code.  Pool-backed
        # commands cancel queued work on the way up (see
        # repro.core.batch), and a campaign's checkpoint already covers
        # everything before the in-flight chunk — `repro campaign
        # resume DIR` continues it.
        print("interrupted", file=sys.stderr)
        return 130
    except ValueError as exc:  # a budget no schedule fits is an answer
        from repro.sched.session import InfeasibleScheduleError  # loaded: it raised

        if not isinstance(exc, InfeasibleScheduleError):
            raise
        raise SystemExit(f"{args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
