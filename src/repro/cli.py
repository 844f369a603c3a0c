"""Command-line interface: drive one subsystem per subcommand.

Usage::

    python -m repro run --benchmark cgo/sendmail
    python -m repro chaos --seeds 25 --scenario mixed
    python -m repro vet examples --expect
    python -m repro equiv all

Each subcommand runs its driver, prints the report and writes its
artifacts under ``--json-dir`` / ``--out-dir`` (mostly defaulting to
``benchmarks/out``).  A run is configured only through its own flags:
no flag sets process-wide state, and every runtime a command builds
takes its collector and observers from explicit arguments.  The paper's
tables and figures are regenerated by ``benchmarks/bench_*.py`` (see
EXPERIMENTS.md), not from here.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, Iterable, List

from repro import codec
from repro.chaos.scenarios import SCENARIOS
from repro.equivalence import PAIRS, run_pair
from repro.errors import ArtifactError
from repro.microbench.registry import benchmarks_by_name


def _cmd_chaos(args) -> str:
    from repro.chaos.report import run_chaos_campaign

    if args.seeds < 1:
        raise SystemExit("chaos: --seeds must be at least 1 "
                         "(an empty campaign would be vacuously clean)")

    report = run_chaos_campaign(
        seeds=args.seeds,
        scenario=args.scenario,
        base_seed=args.base_seed,
        procs=args.procs,
        keep_traces=args.traces,
    )
    path = codec.write(os.path.join(
        args.json_dir,
        f"chaos-{args.scenario}-s{args.base_seed}-n{args.seeds}.json"),
        report.to_dict())
    text = report.format() + f"\n  artifact        : {path}"
    if not report.clean:
        # A dirty campaign is a soundness bug; make the process say so.
        raise SystemExit(text + "\nchaos campaign FAILED")
    return text


def _gate(text: str, failures: List[str], what: str) -> str:
    """The exit contract of ``daemon`` / ``fleet``: the report
    on a clean run; else exit non-zero with it, one ``FAIL:`` line per
    failure and ``<what> FAILED``."""
    if failures:
        raise SystemExit(text + "\n"
                         + "\n".join(f"FAIL: {f}" for f in failures)
                         + f"\n{what} FAILED")
    return text


def _cmd_daemon(args) -> str:
    """The recovery-smoke gate: the chaos recovery campaign, gated on
    its SLOs (>=95% restart success, zero data loss, recovery-time p99
    bound)."""
    from repro.chaos.recovery import run_recovery_campaign

    if args.seeds < 1:
        raise SystemExit("daemon: --seeds must be at least 1")
    campaign = run_recovery_campaign(seeds=args.seeds,
                                     base_seed=args.base_seed)
    path = codec.write(os.path.join(
        args.json_dir, f"recovery-s{args.base_seed}-n{args.seeds}.json"),
        campaign.to_dict())
    failures = ([] if campaign.meets_slo
                else ["recovery campaign missed its SLOs"])
    return _gate("\n".join([
        "-- recovery chaos campaign",
        campaign.format(),
        f"  artifact        : {path}",
    ]), failures, "daemon recovery smoke")


def _cmd_fleet(args) -> str:
    """Sharded multi-runtime fleet run (see docs/FLEET.md).

    Writes a deterministic JSON artifact (schema-validated before
    writing), the fleet ``.prom`` exposition with a ``shard`` label on
    every sample, and the merged leak-report log.  ``--mode both`` runs
    the sequential oracle *and* the multiprocessing fleet and enforces
    their equivalence.  Exits non-zero on a dirty run (invariant
    violation, dead worker, schema breach, or mode divergence).
    """
    from repro.fleet.aggregate import equivalence_diff, validate_fleet_artifact
    from repro.fleet.supervisor import FleetConfig, run_fleet
    from repro.telemetry.export import validate_exposition

    if args.shards < 1:
        raise SystemExit("fleet: --shards must be at least 1")
    if args.users < 1:
        raise SystemExit("fleet: --users must be at least 1")
    config = FleetConfig(
        shards=args.shards, seed=args.seed, users=args.users,
        policy=args.policy, workload=args.workload,
        leak_rate=args.leak_rate, procs_per_shard=args.procs,
        daemon_interval_ms=args.daemon_ms)
    modes = (["sequential", "multiprocessing"] if args.mode == "both"
             else [args.mode])
    results = {mode: run_fleet(config, mode) for mode in modes}

    failures = []
    sections = []
    for mode, result in results.items():
        doc = result.to_dict()
        try:
            counts = validate_fleet_artifact(doc)
        except ArtifactError as exc:
            failures.append(f"{mode}: artifact schema breach: {exc}")
            counts = {}
        prom = result.prom_text()
        try:
            samples = validate_exposition(prom)
        except ArtifactError as exc:
            failures.append(f"{mode}: exposition invalid: {exc}")
            samples = 0
        stem = os.path.join(
            args.json_dir, f"fleet-{mode}-n{args.shards}-s{args.seed}")
        codec.write(f"{stem}.json", doc)
        codec.write_text(f"{stem}.prom", prom)
        codec.write_text(f"{stem}-reports.txt", result.report_log_text())
        if not result.clean:
            failures.append(f"{mode}: dirty run: "
                            + "; ".join(result.problems))
        sections.append("\n".join([
            result.format(),
            f"  wall time       : {result.wall_s:.2f}s",
            f"  exposition      : {samples} sample(s), shard-labelled",
            f"  artifact        : {stem}.json "
            f"({counts.get('reports', 0)} report(s), "
            f"{counts.get('fingerprints', 0)} fingerprint(s))",
        ]))
    if args.mode == "both":
        mismatches = equivalence_diff(results["sequential"],
                                      results["multiprocessing"])
        if mismatches:
            failures.extend(f"mode equivalence: {m}" for m in mismatches)
        else:
            sections.append("mode equivalence : sequential == "
                            "multiprocessing (reports, fingerprints, "
                            "metrics)")
    return _gate("\n\n".join(sections), failures, "fleet run")


def _cmd_vet(args) -> str:
    """Static partial-deadlock analysis (see docs/STATIC_ANALYSIS.md).

    Exit-code contract: 0 when nothing at or above ``--fail-on`` fires
    and every ``# vet:`` expectation holds (expect/chan mismatches and
    malformed annotations fail even under ``--fail-on never``); under
    ``--crossval``, recall >= ``--min-recall`` with zero false
    positives and (behavioral engine) proven channels >=
    ``--min-proven``.  Failures exit 1 with findings on stderr —
    in ``--json`` mode the JSON document still lands intact on stdout
    first.  Usage errors exit 2 via argparse.
    """
    from repro.staticcheck import run_crossval, vet_paths

    artifact_dir = args.json_dir

    def fail(text: str, message: str) -> None:
        """Emit the report, then fail: JSON stays parseable on stdout."""
        if args.json:
            print(text)
            raise SystemExit(message)
        raise SystemExit(text + "\n" + message)

    if args.crossval:
        result = run_crossval(engine=args.engine)
        text = result.to_json() if args.json else result.format_text()
        if artifact_dir:
            name = ("vet-crossval.json" if args.engine == "rules"
                    else f"vet-crossval-{args.engine}.json")
            path = codec.write_text(os.path.join(artifact_dir, name),
                                    result.to_json())
            text += f"\n  artifact        : {path}"
        problems = []
        if result.recall < args.min_recall:
            problems.append(f"recall {result.recall:.4f} below the "
                            f"--min-recall floor {args.min_recall:.4f}")
        if result.fp:
            problems.append(f"{result.fp} false positive(s) on the fixed "
                            f"population")
        if args.engine == "behavior" and \
                result.proven_channels < args.min_proven:
            problems.append(
                f"{result.proven_channels} proven channel(s) below the "
                f"--min-proven floor {args.min_proven}")
        if problems:
            fail(text, "vet crossval FAILED: " + "; ".join(problems))
        return text

    vet = vet_paths(args.paths, expect=args.expect, prove=args.prove)
    text = vet.to_json() if args.json else vet.format_text()
    if artifact_dir:
        path = codec.write_text(
            os.path.join(artifact_dir, "vet-report.json"), vet.to_json())
        text += f"\n  artifact        : {path}"
    failures = vet.failures(args.fail_on)
    if failures:
        fail(text, "vet FAILED ("
             + f"--fail-on {args.fail_on}):\n  "
             + "\n  ".join(failures))
    return text


#: Ring capacity (events) of the tracer ``repro run`` attaches.
TRACE_CAPACITY = 200_000


def _cmd_run(args) -> str:
    """Run one microbenchmark observed and traced; write its artifacts.

    A telemetry hub and the execution tracer are attached before the
    main goroutine spawns, so both cover the whole run; observation is
    passive, so the verdict and reports are an unobserved run's.  After
    the run the collector is driven to quiescence, and the hub's four
    artifacts and the tracer's three (Chrome trace, why-leaked JSON and
    text) are written under one stem, ``run-<slug>[-fixed]-p<P>-s<S>``,
    in ``--out-dir``.  ``--fingerprint-db`` merges the fingerprints of
    earlier invocations in first and saves the merged store after.
    """
    from repro.microbench.harness import run_microbenchmark
    from repro.telemetry.export import write_artifacts
    from repro.telemetry.hub import TelemetryHub
    from repro.telemetry.profiles import format_heap_profile, heap_profile
    from repro.trace.chrome import export_chrome_trace, validate_chrome_trace
    from repro.trace.provenance import provenance_document, provenance_text

    bench = benchmarks_by_name()[args.benchmark]

    if args.fixed and bench.fixed is None:
        raise SystemExit(f"benchmark {bench.name} has no fixed variant")

    variant = "-fixed" if args.fixed else ""
    hub = TelemetryHub()
    db = args.fingerprint_db
    if db and os.path.exists(db):
        hub.fingerprints.load(db)
    hub.fingerprints.begin_run(
        f"run-{bench.name}{variant}-p{args.procs}-s{args.seed}-"
        f"{hub.fingerprints.runs_started + 1}")
    holder = {}

    def hook(rt):
        holder["rt"] = rt
        hub.attach(rt)
        rt.enable_tracing(capacity=TRACE_CAPACITY)

    res = run_microbenchmark(bench, procs=args.procs, seed=args.seed,
                             use_fixed=args.fixed, rt_hook=hook)
    rt = holder["rt"]
    lines = [
        f"benchmark {bench.name} (procs={args.procs} seed={args.seed}"
        + (" fixed" if args.fixed else "") + ")",
        f"  status    : {res.status}"
        + (f" ({res.panic})" if res.panic else ""),
        f"  leaks     : {res.report_count} report(s), "
        f"{res.reclaimed} goroutine(s) reclaimed",
        f"  gc        : {res.num_gc} cycle(s), "
        f"mark clock {res.mark_clock_ns} ns",
    ]
    for report in rt.reports.reports:
        lines.append("  " + report.format().replace("\n", "\n  "))

    rt.gc_until_quiescent()
    hub.sampler.sample(rt)
    if db:
        hub.fingerprints.save(db)
    records = [r.provenance for r in rt.reports.reports
               if r.provenance is not None]
    chrome = export_chrome_trace(rt.tracer, procs=args.procs,
                                 benchmark=bench.name, seed=args.seed)
    counts = validate_chrome_trace(chrome)
    stem = (f"run-{bench.name.replace('/', '-')}{variant}"
            f"-p{args.procs}-s{args.seed}")
    paths = write_artifacts(hub, args.out_dir, stem)
    base = os.path.join(args.out_dir, stem)
    about = (records, bench.name, args.procs, args.seed)
    paths["chrome"] = codec.write_text(f"{base}.trace.json",
                                       codec.dumps(chrome, compact=True))
    paths["provenance"] = codec.write(f"{base}-provenance.json",
                                      provenance_document(*about))
    paths["provenance_txt"] = codec.write_text(f"{base}-provenance.txt",
                                               provenance_text(*about))
    heap = format_heap_profile(heap_profile(rt.heap))
    rt.shutdown()

    gc_cycles = sum(child.value for _, child in hub.gc_cycles.series())
    recorder, tracer = hub.recorder, rt.tracer
    lines += [
        f"after quiescence: {int(gc_cycles)} gc cycle(s), "
        f"{rt.reports.total()} report(s), "
        f"{len(records)} why-leaked record(s)",
        f"  context switches: {int(hub.ctx_switches.value)}",
        f"  recorder        : {len(recorder)} event(s), "
        f"{recorder.dropped} dropped, "
        f"{len(recorder.incidents)} incident(s)",
        f"  trace           : {len(tracer)} event(s), "
        f"{tracer.dropped} dropped",
        f"  chrome schema   : valid ({counts['slices']} slices, "
        f"{counts['instants']} instants, {counts['flows']} flows)",
        "",
        hub.fingerprints.format(),
        "",
        heap,
        "",
        "artifacts:",
    ]
    lines += [f"  {kind:<15s}: {paths[kind]}" for kind in sorted(paths)]
    return "\n".join(lines)


def _cmd_equiv(args) -> str:
    """The differential-equivalence harness (see docs/EQUIVALENCE.md).

    Runs the named pair — or every pair — over the corpus and
    writes one ``equiv-<pair>-p<P>-s<S>.json`` per pair.  Any field
    diff is a bug in exactly one leg; the process exits 1 with every
    mismatch (program, variant, field, both values) on stderr.
    """
    names = tuple(PAIRS) if args.pair == "all" else (args.pair,)
    sections, dirty = [], []
    for name in names:
        result = run_pair(name, procs=args.procs, seed=args.seed)
        path = codec.write(os.path.join(
            args.json_dir, f"equiv-{name}-p{args.procs}-s{args.seed}.json"),
            result.to_dict())
        sections.append(result.format() + f"\n  artifact        : {path}")
        if not result.clean:
            dirty.append(name)
    text = "\n\n".join(sections)
    if dirty:
        raise SystemExit(text + "\nequivalence FAILED: " + ", ".join(dirty))
    return text


_COMMANDS: Dict[str, Callable] = {
    "chaos": _cmd_chaos,
    "daemon": _cmd_daemon,
    "fleet": _cmd_fleet,
    "vet": _cmd_vet,
    "run": _cmd_run,
    "equiv": _cmd_equiv,
}


def _known(what: str, names: Callable[[], Iterable[str]]):
    """An argparse ``type=`` for a registry name: a name ``names()`` does
    not list is a usage error (exit 2) that names it."""
    def check(name: str) -> str:
        known = sorted(names())
        if name not in known:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {name!r}; choices include: "
                + ", ".join(known[:8]) + (", ..." if len(known) > 8 else ""))
        return name
    return check


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", allow_abbrev=False,
        description="Drive the GOLF reproduction's subsystems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, allow_abbrev=False, **kwargs)

    p = add("chaos", help="seeded fault-injection campaign (soundness "
                          "under chaos); exits non-zero on any violation")
    p.add_argument("--seeds", type=int, default=50,
                   help="number of seeded fault schedules to run")
    p.add_argument("--scenario", default="mixed",
                   type=_known("chaos scenario", SCENARIOS.keys),
                   help="fault mix (see repro.chaos.scenarios)")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--procs", type=int, default=2)
    p.add_argument("--traces", action="store_true",
                   help="include per-schedule fault traces in the JSON")
    p.add_argument("--json-dir", default="benchmarks/out",
                   help="directory for the campaign JSON artifact")

    p = add("daemon", help="recovery smoke: the chaos recovery campaign "
                           "(daemon detection, checkpoint/restart); exits "
                           "non-zero on any missed SLO")
    p.add_argument("--seeds", type=int, default=50,
                   help="recovery campaign schedules to run")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--json-dir", default="benchmarks/out",
                   help="directory for the campaign JSON artifact")

    p = add("fleet", help="sharded multi-runtime fleet with cross-shard "
                          "leak aggregation; exits non-zero on a dirty run "
                          "or mode divergence")
    p.add_argument("--shards", type=int, default=2,
                   help="number of independent runtime shards")
    p.add_argument("--mode", default="sequential",
                   choices=["sequential", "multiprocessing", "both"],
                   help="each shard runs start to finish; "
                        "'sequential' runs the shards one after another "
                        "in this process (the deterministic oracle); "
                        "'multiprocessing' runs each in its own worker "
                        "process; "
                        "'both' runs the two and enforces equivalence")
    p.add_argument("--users", type=int, default=96,
                   help="total users routed across the fleet")
    p.add_argument("--policy", default="hash", choices=["hash", "load"],
                   help="user placement: id-hash or least-expected-load")
    p.add_argument("--workload", default="controlled",
                   choices=["controlled", "production"],
                   help="per-shard leak workload shape")
    p.add_argument("--leak-rate", type=float, default=0.1,
                   help="fraction of requests hitting the leaky path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--procs", type=int, default=2,
                   help="virtual processors per shard")
    p.add_argument("--daemon-ms", type=float, default=None,
                   help="per-shard detection-daemon interval (virtual "
                        "ms); omitted = GC-cadence detection only")
    p.add_argument("--json-dir", default="benchmarks/out",
                   help="directory for the fleet JSON/.prom artifacts")

    p = add("vet", help="static partial-deadlock analysis over goroutine "
                        "bodies; exits non-zero per --fail-on")
    p.add_argument("paths", nargs="*", default=["examples"],
                   help="files or directories to analyze "
                        "(default: examples/)")
    p.add_argument("--json", action="store_true",
                   help="emit the JSON report on stdout instead of text")
    p.add_argument("--fail-on", default="error",
                   choices=["info", "warning", "error", "never"],
                   help="lowest severity that makes the run fail "
                        "(default: error)")
    p.add_argument("--expect", action="store_true",
                   help="enforce '# vet: expect/clean/ok' annotations: "
                        "annotated findings are required, unannotated "
                        "ones fail")
    p.add_argument("--crossval", action="store_true",
                   help="ignore paths; analyze the microbench registry "
                        "and report precision/recall vs GOLF's dynamic "
                        "ground truth")
    p.add_argument("--min-recall", type=float, default=0.75,
                   help="crossval recall floor (default: 0.75)")
    p.add_argument("--prove", action="store_true",
                   help="also run the behavioral-type engine: per-channel "
                        "proven/potential/unknown verdicts, '# vet: "
                        "chan=<label> <verdict>' annotation checks")
    p.add_argument("--engine", default="rules",
                   choices=["rules", "behavior"],
                   help="crossval engine: 'rules' (default) or "
                        "'behavior' (rules fused with behavioral-type "
                        "counterexamples + proven-channel count)")
    p.add_argument("--min-proven", type=int, default=0,
                   help="floor on proven-leak-free channels (behavioral "
                        "crossval); default: 0")
    p.add_argument("--json-dir", default=None,
                   help="also write the JSON report into this directory")

    p = add("run", help="run one microbenchmark observed and traced; "
                        "writes the metrics, recorder, fingerprint, "
                        "Chrome-trace and why-leaked artifacts")
    p.add_argument("--benchmark", default="cgo/sendmail",
                   type=_known("benchmark", benchmarks_by_name),
                   help="microbenchmark name (see repro.microbench)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--procs", type=int, default=2)
    p.add_argument("--fixed", action="store_true",
                   help="run the benchmark's fixed (leak-free) variant")
    p.add_argument("--fingerprint-db", default=None,
                   help="persistent fingerprint store for cross-run "
                        "leak dedup")
    p.add_argument("--out-dir", default="benchmarks/out",
                   help="directory for the run's artifacts")

    p = add("equiv", help="differential-equivalence harness: run one "
                          "A-vs-B pair (or all) over the 125-program "
                          "corpus; exits non-zero on any divergence")
    p.add_argument("pair", nargs="?", default="all",
                   choices=tuple(PAIRS) + ("all",),
                   help="which pair to run (default: all)")
    p.add_argument("--procs", type=int, default=2)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--json-dir", default="benchmarks/out",
                   help="directory for the per-pair JSON artifacts")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    text = _COMMANDS[args.command](args)
    elapsed = time.time() - started
    if getattr(args, "json", False):
        # Keep machine-readable stdout clean of banners.
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        print(f"===== {args.command} ({elapsed:.1f}s) =====")
        print(text)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via -m
    sys.exit(main())
