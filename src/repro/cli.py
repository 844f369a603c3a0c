"""Command-line interface: regenerate any paper artifact.

Usage::

    python -m repro table1 --runs 30
    python -m repro table2 --duration 15
    python -m repro figure1 --days 21
    python -m repro vet examples --expect
    python -m repro all --out artifacts/

Each subcommand runs the corresponding experiment driver and prints the
paper-style table or figure; ``--out DIR`` additionally archives it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, List, Optional

from repro import codec
from repro.core.config import GC_MODES, set_default_gc_mode
from repro.corpus.generator import CorpusConfig
from repro.equivalence import PAIR_NAMES, run_pair
from repro.errors import ArtifactError
from repro.experiments import (
    format_figure1,
    format_figure3,
    format_figure4,
    format_rq1b,
    format_rq1c,
    format_table1,
    format_table2,
    format_table3,
    run_figure1,
    run_figure3,
    run_figure4,
    run_rq1b,
    run_rq1c,
    run_table1,
    run_table2,
    run_table3,
)
from repro.experiments.ablations import (
    CadenceAblation,
    FixpointAblation,
    RecoveryAblation,
)
from repro.service.controlled import ControlledConfig
from repro.service.longrun import LongRunConfig
from repro.service.production import ProductionConfig
from repro.artifact import TesterConfig, run_tester


def _cmd_table1(args) -> str:
    return format_table1(run_table1(runs=args.runs))


def _cmd_table2(args) -> str:
    config = ControlledConfig(duration_s=args.duration, warmup_s=3)
    return format_table2(run_table2(config=config))


def _cmd_table3(args) -> str:
    return format_table3(run_table3(ProductionConfig(hours=args.hours)))


def _cmd_figure1(args) -> str:
    config = LongRunConfig(days=args.days)
    return format_figure1(run_figure1(config))


def _cmd_figure3(args) -> str:
    config = CorpusConfig(n_packages=args.packages)
    return format_figure3(run_figure3(config))


def _cmd_figure4(args) -> str:
    return format_figure4(run_figure4(repeats=args.repeats))


def _cmd_rq1b(args) -> str:
    config = CorpusConfig(n_packages=args.packages)
    return format_rq1b(run_rq1b(config))


def _cmd_rq1c(args) -> str:
    config = ProductionConfig(hours=args.hours, leak_every=3000)
    return format_rq1c(run_rq1c(config))


def _cmd_tester(args) -> str:
    config = TesterConfig(match=args.match, repeats=args.repeats,
                          perf=args.perf)
    report = run_tester(config)
    text = report.format_results()
    if args.perf:
        text += "\n\n" + report.format_perf_csv()
    return text


def _cmd_chaos(args) -> str:
    from repro.chaos import run_chaos_campaign

    if args.seeds < 1:
        raise SystemExit("chaos: --seeds must be at least 1 "
                         "(an empty campaign would be vacuously clean)")

    from repro.telemetry import get_default_hub

    report = run_chaos_campaign(
        seeds=args.seeds,
        scenario=args.scenario,
        base_seed=args.base_seed,
        procs=args.procs,
        keep_traces=args.traces,
        telemetry=get_default_hub(),
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
    """The exit contract of ``daemon`` / ``fleet`` / ``dash``: the report
    on a clean run; else exit non-zero with it, one ``FAIL:`` line per
    failure and ``<what> FAILED``."""
    if failures:
        raise SystemExit(text + "\n"
                         + "\n".join(f"FAIL: {f}" for f in failures)
                         + f"\n{what} FAILED")
    return text


def _cmd_daemon(args) -> str:
    """The recovery-smoke gate: daemon SLO + rollback e2e + campaign."""
    from repro.chaos import run_recovery_campaign
    from repro.experiments.latency import (
        format_daemon_sweep,
        run_daemon_latency_sweep,
    )
    from repro.service.checkpointed import CheckpointedConfig, run_checkpointed
    from repro.telemetry import get_default_hub

    if args.seeds < 1:
        raise SystemExit("daemon: --seeds must be at least 1")
    failures = []

    # 1. Detection-latency SLO: the daemon at 50ms (virtual) must beat
    #    the 100ms GC-cadence baseline on p99 time-to-detection.
    sweep = run_daemon_latency_sweep(
        daemon_intervals_ms=(5.0, 20.0, 50.0, 200.0), gc_interval_ms=100.0)
    baseline = sweep[0]
    by_daemon = {r.daemon_interval_ms: r for r in sweep[1:]}
    if not by_daemon[50.0].p99_ms() < baseline.p99_ms():
        failures.append(
            f"latency SLO: daemon@50ms p99 {by_daemon[50.0].p99_ms():.2f}ms "
            f"not below GC-cadence baseline {baseline.p99_ms():.2f}ms")
    if any(r.detected != r.leaks for r in sweep):
        failures.append("latency SLO: not every leak detected")

    # 2. Checkpoint/rollback end to end, no chaos: poison wedges must be
    #    condemned, the subsystem restarted, and every job drained with
    #    zero data loss.
    e2e = run_checkpointed(CheckpointedConfig(seed=args.base_seed))
    if not e2e.clean:
        failures.append(f"checkpoint e2e not clean: {e2e!r}")
    if e2e.recoveries < 1:
        failures.append("checkpoint e2e: no recovery exercised")

    # 3. The chaos recovery campaign, gated on its SLOs (>=95% restart
    #    success, zero data loss, recovery-time p99 bound).
    campaign = run_recovery_campaign(
        seeds=args.seeds, base_seed=args.base_seed,
        telemetry=get_default_hub())
    path = codec.write(os.path.join(
        args.json_dir, f"recovery-s{args.base_seed}-n{args.seeds}.json"),
        campaign.to_dict())
    if not campaign.meets_slo:
        failures.append("recovery campaign missed its SLOs")

    return _gate("\n".join([
        "-- detection-latency SLO curve (daemon vs GC cadence)",
        format_daemon_sweep(sweep),
        "",
        "-- checkpoint/rollback e2e",
        f"  {e2e!r}",
        f"  recoveries={e2e.recoveries} redeliveries={e2e.redeliveries} "
        f"checkpoints={e2e.checkpoints_taken} "
        f"daemon_checks={e2e.daemon_checks}",
        "",
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
    from repro.fleet import (
        FleetConfig,
        equivalence_diff,
        run_fleet,
        validate_fleet_artifact,
    )
    from repro.telemetry import validate_exposition

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


def _cmd_dash(args) -> str:
    """Deterministic TSDB dashboard over a scraped fleet run.

    Runs the sequential (oracle) fleet with per-shard metric scraping
    on, renders the text dashboard, and writes the schema-versioned
    JSON artifact (series rollup + alert timeline) — validated before
    writing; two same-seed invocations produce byte-identical output.
    Exits non-zero on a dirty run or a schema breach.
    """
    from repro.telemetry.dashboard import run_dash, validate_dash_artifact

    if args.shards < 1:
        raise SystemExit("dash: --shards must be at least 1")
    if args.scrape_ms <= 0:
        raise SystemExit("dash: --scrape-ms must be positive")
    result = run_dash(
        shards=args.shards, users=args.users, seed=args.seed,
        workload=args.workload, policy=args.policy,
        leak_rate=args.leak_rate, procs=args.procs,
        daemon_ms=args.daemon_ms, scrape_ms=args.scrape_ms)
    doc = result.to_dict()
    failures = []
    try:
        counts = validate_dash_artifact(doc)
    except ArtifactError as exc:
        failures.append(f"artifact schema breach: {exc}")
        counts = {}
    path = codec.write(os.path.join(
        args.json_dir, f"dash-n{args.shards}-s{args.seed}.json"), doc)
    if not result.clean:
        failures.append("dirty run: " + "; ".join(result.fleet.problems))
    return _gate("\n".join([
        result.format().rstrip("\n"),
        "",
        f"artifact : {path} ({counts.get('series', 0)} series, "
        f"{counts.get('alert_transitions', 0)} alert transition(s), "
        f"{counts.get('rules', 0)} rule(s))",
    ]), failures, "dash run")


def _cmd_obs(args) -> str:
    from repro.telemetry import (
        DEBUG,
        TelemetryHub,
        run_observed_benchmark,
        write_artifacts,
    )

    hub = TelemetryHub(min_severity=DEBUG)
    result = run_observed_benchmark(
        args.benchmark, procs=args.procs, seed=args.seed, hub=hub,
        fingerprint_db=args.fingerprint_db)
    out_dir = args.out_dir or args.out or "benchmarks/out"
    slug = args.benchmark.replace("/", "-")
    result.artifact_paths = write_artifacts(
        hub, out_dir, f"obs-{slug}-p{args.procs}-s{args.seed}")
    return result.format()


def _cmd_trace(args) -> str:
    from repro.trace.chrome import validate_chrome_trace
    from repro.trace.driver import run_traced_benchmark, write_trace_artifacts

    result = run_traced_benchmark(
        args.benchmark, procs=args.procs, seed=args.seed,
        capacity=args.capacity)
    counts = validate_chrome_trace(result.chrome)
    out_dir = args.out_dir or args.out or "benchmarks/out"
    write_trace_artifacts(result, out_dir)
    text = result.format()
    text += ("\n  chrome schema   : valid "
             f"({counts['slices']} slices, {counts['instants']} instants, "
             f"{counts['flows']} flows)")
    return text


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
    from repro.telemetry import get_default_hub

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
    hub = get_default_hub()
    if hub is not None:
        hub.on_vet_run(vet)
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


def _cmd_run(args) -> str:
    """Run one microbenchmark, optionally with static proofs fused in.

    ``--proofs`` certifies the benchmark body with the behavioral
    engine, installs the per-program certificate registry, and reports
    how many fixpoint scans the proofs skipped alongside the leak
    reports (which are byte-identical either way — re-checkable with
    ``repro equiv proofs``).
    """
    from repro.microbench.harness import run_microbenchmark
    from repro.microbench.registry import benchmarks_by_name

    benches = benchmarks_by_name()
    if args.benchmark not in benches:
        raise SystemExit(f"unknown benchmark {args.benchmark!r}; "
                         f"choices include: "
                         + ", ".join(sorted(benches)[:8]) + ", ...")
    bench = benches[args.benchmark]

    if args.fixed and bench.fixed is None:
        raise SystemExit(f"benchmark {bench.name} has no fixed variant")

    registry = None
    proven = 0
    if args.proofs:
        from repro.staticcheck.behavior import analyze_callable_behavior
        from repro.staticcheck.fusion import registry_for_analysis
        body = bench.fixed if args.fixed else bench.body
        analysis = analyze_callable_behavior(body, name=bench.name)
        registry = registry_for_analysis(analysis)
        proven = len(registry)

    holder = {}

    def hook(rt):
        holder["rt"] = rt
        if registry is not None:
            rt.install_proofs(registry)

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
    if args.proofs:
        skips = sum(cs.proof_skips for cs in rt.collector.stats.cycles)
        lines.append(f"  proofs    : {proven} proven site(s) installed, "
                     f"{skips} fixpoint scan(s) skipped")
    for report in rt.reports.reports:
        lines.append("  " + report.format().replace("\n", "\n  "))
    return "\n".join(lines)


def _cmd_equiv(args) -> str:
    """The differential-equivalence harness (see docs/EQUIVALENCE.md).

    Runs the named pair — or every pair — over its whole corpus and
    writes one ``equiv-<pair>-p<P>-s<S>.json`` per pair.  Any field
    diff is a bug in exactly one leg; the process exits 1 with every
    mismatch (program, variant, field, both values) on stderr.
    """
    names = PAIR_NAMES if args.pair == "all" else (args.pair,)
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


def _cmd_ablations(args) -> str:
    sections = [
        ("fixpoint strategy", FixpointAblation().run().format()),
        ("detection cadence", CadenceAblation().run().format()),
        ("recovery", RecoveryAblation().run().format()),
    ]
    return "\n\n".join(f"-- {title}\n{body}" for title, body in sections)


_COMMANDS: Dict[str, Callable] = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "figure1": _cmd_figure1,
    "figure3": _cmd_figure3,
    "figure4": _cmd_figure4,
    "rq1b": _cmd_rq1b,
    "rq1c": _cmd_rq1c,
    "ablations": _cmd_ablations,
    "tester": _cmd_tester,
    "chaos": _cmd_chaos,
    "daemon": _cmd_daemon,
    "fleet": _cmd_fleet,
    "dash": _cmd_dash,
    "obs": _cmd_obs,
    "trace": _cmd_trace,
    "vet": _cmd_vet,
    "run": _cmd_run,
    "equiv": _cmd_equiv,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the GOLF paper's tables and figures.",
    )
    parser.add_argument("--out", default=None,
                        help="directory to archive artifacts into")
    # Telemetry plumbing shared by every subcommand: any experiment can
    # run observed (metrics + flight recorder on every runtime it
    # builds) and drop uniform artifacts under --out-dir.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--metrics", action="store_true",
                        help="collect telemetry (INFO-level recorder) and "
                             "write .prom/JSON artifacts")
    common.add_argument("--trace", action="store_true",
                        help="like --metrics but with DEBUG-level "
                             "flight-recorder events (park/wake)")
    common.add_argument("--out-dir", default=None,
                        help="directory for telemetry artifacts "
                             "(default benchmarks/out)")
    common.add_argument("--gc-mode", default=None,
                        choices=sorted(GC_MODES),
                        help="collector to use for every runtime the "
                             "command builds: 'atomic' (single STW "
                             "cycle) or 'incremental' (scheduler-"
                             "interleaved phase machine)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add("table1", help="microbenchmark detection rates")
    p.add_argument("--runs", type=int, default=30)

    p = add("table2", help="controlled service metrics")
    p.add_argument("--duration", type=int, default=15,
                   help="virtual seconds of load per cell")

    p = add("table3", help="production overhead")
    p.add_argument("--hours", type=float, default=2.0)

    p = add("figure1", help="blocked goroutines over time")
    p.add_argument("--days", type=int, default=21)

    p = add("figure3", help="GOLF/goleak ratio curve")
    p.add_argument("--packages", type=int, default=300)

    p = add("figure4", help="marking-phase slowdown")
    p.add_argument("--repeats", type=int, default=5)

    p = add("rq1b", help="test-suite totals vs goleak")
    p.add_argument("--packages", type=int, default=300)

    p = add("rq1c", help="24h real-service deployment")
    p.add_argument("--hours", type=float, default=4.0)

    add("ablations", help="design-choice ablations")

    p = add("tester", help="the artifact-appendix testing harness")
    p.add_argument("--match", default="", help="benchmark name regex")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--perf", action="store_true",
                   help="also emit the results-perf.csv comparison")

    p = add("chaos", help="seeded fault-injection campaign (soundness "
                          "under chaos); exits non-zero on any violation")
    p.add_argument("--seeds", type=int, default=50,
                   help="number of seeded fault schedules to run")
    p.add_argument("--scenario", default="mixed",
                   help="fault mix (see repro.chaos.scenarios)")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--procs", type=int, default=2)
    p.add_argument("--traces", action="store_true",
                   help="include per-schedule fault traces in the JSON")
    p.add_argument("--json-dir", default="benchmarks/out",
                   help="directory for the campaign JSON artifact")

    p = add("daemon", help="recovery smoke: daemon detection-latency SLO, "
                           "checkpoint/rollback e2e, and the chaos recovery "
                           "campaign; exits non-zero on any missed SLO")
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
                   help="'sequential' steps shards round-robin in one "
                        "process (the deterministic oracle); "
                        "'multiprocessing' runs one worker per shard; "
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

    p = add("dash", help="deterministic TSDB dashboard + alert timeline "
                         "over a scraped sequential fleet run")
    p.add_argument("--shards", type=int, default=2,
                   help="number of runtime shards (1 = single runtime)")
    p.add_argument("--users", type=int, default=16,
                   help="total users routed across the fleet")
    p.add_argument("--workload", default="controlled",
                   choices=["controlled", "production"],
                   help="per-shard leak workload shape")
    p.add_argument("--policy", default="hash", choices=["hash", "load"],
                   help="user placement: id-hash or least-expected-load")
    p.add_argument("--leak-rate", type=float, default=0.1,
                   help="fraction of requests hitting the leaky path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--procs", type=int, default=2,
                   help="virtual processors per shard")
    p.add_argument("--daemon-ms", type=float, default=10.0,
                   help="per-shard detection-daemon interval (virtual ms)")
    p.add_argument("--scrape-ms", type=float, default=5.0,
                   help="TSDB scrape cadence (virtual ms)")
    p.add_argument("--json-dir", default="benchmarks/out",
                   help="directory for the dash JSON artifact")

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

    p = add("run", help="run one microbenchmark, optionally with static "
                        "leak-freedom proofs fused into the detector")
    p.add_argument("--benchmark", default="cgo/sendmail",
                   help="microbenchmark name (see repro.microbench)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--procs", type=int, default=2)
    p.add_argument("--fixed", action="store_true",
                   help="run the benchmark's fixed (leak-free) variant")
    p.add_argument("--proofs", action="store_true",
                   help="certify the benchmark with the behavioral "
                        "engine and install the certificate registry so "
                        "the detector skips proven channels")

    p = add("obs", help="run one benchmark fully observed and report "
                        "(metrics, flight recorder, profiles, "
                        "fingerprints)")
    p.add_argument("--benchmark", default="cgo/sendmail",
                   help="microbenchmark name (see repro.microbench)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--procs", type=int, default=2)
    p.add_argument("--fingerprint-db", default=None,
                   help="persistent fingerprint store for cross-run "
                        "leak dedup")

    p = add("trace", help="run one benchmark with the execution tracer "
                          "and write Chrome-trace + why-leaked artifacts")
    p.add_argument("--benchmark", default="cgo/sendmail",
                   help="microbenchmark name (see repro.microbench)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--procs", type=int, default=2)
    p.add_argument("--capacity", type=int, default=200_000,
                   help="trace ring-buffer capacity (events)")

    p = add("equiv", help="differential-equivalence harness: run one "
                          "A-vs-B pair (or all) over the 125-program "
                          "corpus; exits non-zero on any divergence")
    p.add_argument("pair", nargs="?", default="all",
                   choices=PAIR_NAMES + ("all",),
                   help="which pair to run (default: all)")
    p.add_argument("--procs", type=int, default=2)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--json-dir", default="benchmarks/out",
                   help="directory for the per-pair JSON artifacts")

    p = add("all", help="regenerate everything")
    p.add_argument("--runs", type=int, default=30)
    p.add_argument("--duration", type=int, default=15)
    p.add_argument("--hours", type=float, default=2.0)
    p.add_argument("--days", type=int, default=21)
    p.add_argument("--packages", type=int, default=300)
    p.add_argument("--repeats", type=int, default=5)
    return parser


def _archive(out_dir: Optional[str], name: str, text: str) -> None:
    if out_dir is not None:
        codec.write_text(os.path.join(out_dir, f"{name}.txt"), text + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "gc_mode", None):
        # Experiments build GolfConfig() internally, which resolves the
        # module-level default, so one flag switches every runtime the
        # command creates (chaos campaigns included).
        set_default_gc_mode(args.gc_mode)
    hub = None
    if getattr(args, "metrics", False) or getattr(args, "trace", False):
        from repro.telemetry import (
            DEBUG,
            INFO,
            TelemetryHub,
            set_default_hub,
        )

        hub = TelemetryHub(
            min_severity=DEBUG if getattr(args, "trace", False) else INFO)
        # Every runtime any experiment builds from here on reports into
        # this hub (Runtime.__init__ auto-attaches the default hub).
        set_default_hub(hub)
    if args.command == "all":
        # tester, chaos, daemon, fleet, dash, obs, trace, vet, and
        # equiv have their own flags and fail semantics; they run as
        # explicit subcommands only.
        commands = [c for c in _COMMANDS
                    if c not in ("tester", "chaos", "daemon", "fleet",
                                 "dash", "obs", "trace", "vet",
                                 "equiv")]
    else:
        commands = [args.command]
    try:
        for name in commands:
            started = time.time()
            text = _COMMANDS[name](args)
            elapsed = time.time() - started
            if getattr(args, "json", False):
                # Keep machine-readable stdout clean of banners.
                print(text, end="" if text.endswith("\n") else "\n")
            else:
                print(f"===== {name} ({elapsed:.1f}s) =====")
                print(text)
                print()
            _archive(args.out, name, text)
    finally:
        if hub is not None:
            from repro.telemetry import set_default_hub, write_artifacts

            set_default_hub(None)
            out_dir = (getattr(args, "out_dir", None) or args.out
                       or "benchmarks/out")
            paths = write_artifacts(hub, out_dir,
                                    f"{args.command}-telemetry")
            for kind in sorted(paths):
                print(f"telemetry {kind}: {paths[kind]}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via -m
    sys.exit(main())
