"""The seven named workloads.

Every workload drives a public entry point of ``repro`` with configs
built from the public defaults plus workload-shape arguments only
(sizes, rates, seeds) — never collector tuning such as
``on_the_fly_roots``, proof fusion or budgets — so a later change to a
default is measured, not bypassed.  All loads are closed loop (every
simulated client waits for its reply), one process, one thread.

A workload is four functions over plain data:

- ``prepare(seed, scale)`` builds the inputs (``scale`` 1.0 is the
  benchmark size; the worker warms up at :data:`WARMUP_SCALE`);
- ``run(inputs)`` is the measured region;
- ``judge(inputs, result)`` checks the outputs with conditions that hold
  for any correct version and extracts the simulated statistics.

Entry points are called through their defining module (``harness.
run_microbenchmark``) so the traced run's rebinding of those names is
seen here.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional

from repro.chaos import recovery as chaos_recovery
from repro.core.config import GolfConfig
from repro.fleet import supervisor as fleet_supervisor
from repro.fleet.supervisor import FleetConfig
from repro.microbench import harness
from repro.microbench.registry import all_benchmarks
from repro.service import controlled, production
from repro.service.controlled import ControlledConfig
from repro.service.production import ProductionConfig
from repro.telemetry.hub import TelemetryHub

#: The worker's warm-up run and the harness smoke test use this scale.
WARMUP_SCALE = 1.0 / 50.0

#: Slack added to a request's nominal service time when computing the
#: closed-loop floor (scheduling, GC pauses, handler work).
FLOOR_SLACK_MS = 20

#: The one benchmark panic the paper's artifact appendix documents
#: (an occasional send on a closed channel); it is not a failure.
DOCUMENTED_PANICS = frozenset({"etcd/7443"})


class Outcome(NamedTuple):
    """What ``judge`` returns for one execution of a workload."""

    attempted: int
    failed: int
    problems: List[str]
    #: Canonical simulated statistics; must repeat exactly for a seed.
    sim: Dict[str, Any]
    #: The named ``sim_*`` end-to-end metrics this workload reports.
    sim_metrics: Dict[str, float]
    #: Subset of ``sim`` that must equal the reference workload's.
    paired: Optional[Dict[str, Any]] = None


class Workload(NamedTuple):
    name: str
    why: str
    prepare: Callable[[int, float], Any]
    run: Callable[[Any], Any]
    judge: Callable[[Any, Any], Outcome]
    #: Wrapper keys (see ``layers.py``) that must fire in a traced run.
    uses: FrozenSet[str]
    #: Workload whose ``paired`` statistics this one is checked against.
    reference: Optional[str] = None
    #: Relative tolerance of that comparison (0 = identical).
    paired_tolerance: float = 0.0


def _scaled(n: float, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(n * scale)))


# ---------------------------------------------------------------------------
# registry-sweep
# ---------------------------------------------------------------------------

SWEEP_PROCS = (1, 2, 4, 10)
SWEEP_SEEDS = 6
FIXED_PROCS = (1, 4)
FIXED_SEEDS = 2


def _sweep_prepare(seed: int, scale: float):
    benches = all_benchmarks()
    if SWEEP_SEEDS * scale < 1:
        # Below one seed per configuration, thin the program list too.
        benches = benches[::int(round(1 / (SWEEP_SEEDS * scale)))]
    plan = []
    for bench in benches:
        for procs in SWEEP_PROCS:
            for run in range(_scaled(SWEEP_SEEDS, scale)):
                plan.append((bench, procs, False,
                             seed * 1_000_003 + run * 7919 + procs * 104729))
    for bench in benches:
        if bench.fixed is None:
            continue
        for procs in FIXED_PROCS:
            for run in range(_scaled(FIXED_SEEDS, scale)):
                plan.append((bench, procs, True,
                             seed * 1_000_003 + run * 7919 + procs * 104729))
    return plan


def _sweep_run(plan):
    return [
        harness.run_microbenchmark(bench, procs=procs, seed=seed,
                                   use_fixed=fixed)
        for bench, procs, fixed, seed in plan
    ]


def _sweep_judge(plan, results) -> Outcome:
    problems: List[str] = []
    failed = 0
    site_runs = 0
    site_hits = 0
    per_program: Dict[str, int] = {}
    totals = {"num_gc": 0, "reports": 0, "reclaimed": 0, "panics": 0}
    for (bench, procs, fixed, seed), res in zip(plan, results):
        where = (f"{bench.name}{' [fixed]' if fixed else ''} "
                 f"procs={procs} seed={seed}")
        bad = False
        if res.status == "runtime-failure":
            problems.append(f"{where}: runtime failure: {res.panic}")
            bad = True
        elif res.panic is not None:
            totals["panics"] += 1
            if bench.name not in DOCUMENTED_PANICS:
                problems.append(f"{where}: panic: {res.panic}")
                bad = True
        truth = set() if fixed else set(bench.sites)
        spurious = sorted(res.detected - truth)
        if spurious:
            problems.append(f"{where}: reported non-leaky {spurious}")
            bad = True
        if not fixed:
            site_runs += len(bench.sites)
            hits = len(res.detected & truth)
            site_hits += hits
            per_program[bench.name] = per_program.get(bench.name, 0) + hits
        totals["num_gc"] += res.num_gc
        totals["reports"] += res.report_count
        totals["reclaimed"] += res.reclaimed
        failed += bad
    rate = site_hits / site_runs if site_runs else 0.0
    sim = {"runs": len(plan), "site_runs": site_runs, "site_hits": site_hits,
           "per_program": per_program, **totals}
    return Outcome(len(plan), failed, problems, sim,
                   {"sim_detect_rate": rate})


# ---------------------------------------------------------------------------
# svc-leak-atomic / svc-leak-incremental
# ---------------------------------------------------------------------------

LEAK_DURATION_S = 22
LEAK_WARMUP_S = 5
LEAK_RATE = 0.1


def _leak_prepare(seed: int, scale: float) -> ControlledConfig:
    return ControlledConfig(duration_s=_scaled(LEAK_DURATION_S, scale),
                            warmup_s=_scaled(LEAK_WARMUP_S, scale),
                            leak_rate=LEAK_RATE, seed=seed)


def _leak_run_atomic(cfg: ControlledConfig):
    return controlled.run_controlled(cfg)


def _leak_run_incremental(cfg: ControlledConfig):
    return controlled.run_controlled(
        cfg, gc_config=GolfConfig(gc_mode="incremental"))


def _closed_loop(completed: int, floor: int, problems: List[str],
                 what: str):
    """attempted/failed against the closed-loop floor of requests."""
    attempted = max(completed, floor)
    if completed < floor:
        problems.append(
            f"{what}: completed {completed} < closed-loop floor {floor}")
    return attempted, attempted - completed


def _leak_judge(cfg: ControlledConfig, res) -> Outcome:
    problems: List[str] = []
    per_request_ms = (cfg.downstream_ms + cfg.downstream_jitter_ms
                      + FLOOR_SLACK_MS)
    floor = math.floor(cfg.connections * cfg.duration_s * 1000
                       / per_request_ms)
    attempted, failed = _closed_loop(res.completed, floor, problems,
                                     "controlled service")
    sim = {
        "completed": res.completed,
        "deadlocks_detected": res.deadlocks_detected,
        "goroutines_reclaimed": res.goroutines_reclaimed,
        "throughput_rps": res.throughput_rps,
        "latency": res.latency,
        "memstats": res.memstats,
        "max_pause_ns": res.max_pause_ns,
        "max_pause_window_ns": res.max_pause_window_ns,
        "heap_series": res.heap_series,
        "blocked_series": res.blocked_series,
    }
    metrics = {
        "sim_rps": res.throughput_rps,
        "sim_p99_ms": res.latency["p99_ms"],
        "sim_gc_pause_max_us": res.max_pause_window_ns / 1e3,
    }
    paired = {"completed": res.completed,
              "deadlocks_detected": res.deadlocks_detected}
    return Outcome(attempted, failed, problems, sim, metrics, paired)


# ---------------------------------------------------------------------------
# svc-prod / svc-prod-observed
# ---------------------------------------------------------------------------

PROD_HOURS = 0.3
OBSERVED_SCRAPE_MS = 1000.0


class ObservingHub(TelemetryHub):
    """A hub whose ``attach`` switches every observer on.

    ``run_production`` builds its runtime internally and only accepts a
    hub, so the tracer and the TSDB scraper ride in on ``attach`` — both
    through the runtime's public switches.
    """

    def __init__(self) -> None:
        super().__init__()
        self.enable_tsdb(scrape_interval_ms=OBSERVED_SCRAPE_MS)
        self.observed = []

    def attach(self, rt):
        fresh = rt.sched.telemetry is not self
        super().attach(rt)
        if fresh:
            rt.enable_tracing()
            rt.start_metrics_scrape(self)
            self.observed.append(rt)
        return self


def _prod_prepare(seed: int, scale: float) -> ProductionConfig:
    return ProductionConfig(hours=PROD_HOURS * scale, seed=seed)


def _prod_run(cfg: ProductionConfig):
    return production.run_production(cfg), None


def _prod_run_observed(cfg: ProductionConfig):
    hub = ObservingHub()
    return production.run_production(cfg, telemetry=hub), hub


def _prod_judge(cfg: ProductionConfig, run_result) -> Outcome:
    res, hub = run_result
    problems: List[str] = []
    per_request_ms = (cfg.think_time_ms + cfg.handler_work_ms
                      + cfg.downstream_ms + cfg.downstream_jitter_ms
                      + FLOOR_SLACK_MS)
    floor = math.floor(cfg.connections * cfg.hours * 3_600_000
                       / per_request_ms)
    attempted, failed = _closed_loop(res.total_requests, floor, problems,
                                     "production service")
    summary = {k: list(v) for k, v in res.summary().items()}
    paired = {
        "total_requests": res.total_requests,
        "deadlock_reports": res.deadlock_reports,
        "dedup_sites": res.dedup_sites,
        "samples": [[s.t_ns, s.p50_ms, s.p99_ms, s.cpu_percent, s.blocked]
                    for s in res.samples],
        "summary": summary,
    }
    sim = dict(paired)
    if hub is not None:
        scraper = hub.observed[0].metrics_scraper
        sim["observers"] = {
            "scrapes": scraper.scrapes,
            "tsdb_series": len(hub.tsdb),
            "tsdb_dropped_points": hub.tsdb.dropped_points,
            "recorder_dropped": hub.recorder.dropped,
            "trace_events": len(hub.observed[0].tracer),
            "trace_dropped": hub.observed[0].tracer.dropped,
        }
        if scraper.scrapes == 0:
            problems.append("observed run never scraped")
    metrics = {"sim_p99_ms": summary["p99_latency_ms"][0]}
    return Outcome(attempted, failed, problems, sim, metrics, paired)


# ---------------------------------------------------------------------------
# fleet-4shard
# ---------------------------------------------------------------------------

FLEET_SHARDS = 4
FLEET_USERS = 1200
FLEET_DAEMON_MS = 5.0


def _fleet_prepare(seed: int, scale: float) -> FleetConfig:
    return FleetConfig(shards=FLEET_SHARDS,
                       users=_scaled(FLEET_USERS, scale, floor=2 * FLEET_SHARDS),
                       policy="load", leak_rate=LEAK_RATE,
                       daemon_interval_ms=FLEET_DAEMON_MS, seed=seed)


def _fleet_run(cfg: FleetConfig):
    return fleet_supervisor.run_fleet(cfg, mode="sequential")


def _fleet_judge(cfg: FleetConfig, res) -> Outcome:
    problems = [f"fleet: {p}" for p in res.problems]
    model = cfg.model()
    expected = sum(model.request_count(u) for u in range(cfg.users))
    served = res.total_requests
    if served != expected:
        problems.append(
            f"fleet: served {served} requests, traffic model has {expected}")
    # A dirty fleet (shard did not finish, invariant violated) fails whole.
    failed = expected if not res.clean else min(expected,
                                                abs(expected - served))
    return Outcome(expected, failed, problems, res.to_dict(),
                   {"sim_rps": res.sustained_rps})


# ---------------------------------------------------------------------------
# recovery-campaign
# ---------------------------------------------------------------------------

CAMPAIGN_SEEDS = 360


def _campaign_prepare(seed: int, scale: float):
    return {"seeds": _scaled(CAMPAIGN_SEEDS, scale, floor=4),
            "base_seed": 10_000 * seed}


def _campaign_run(args):
    return chaos_recovery.run_recovery_campaign(**args)


def _campaign_judge(args, report) -> Outcome:
    problems: List[str] = []
    failed = 0
    for sched in report.schedules:
        res = sched.result
        if sched.success and res.zero_data_loss and not res.invariant_problems:
            continue
        failed += 1
        problems.append(
            f"schedule seed={sched.seed}: restarted={sched.success} "
            f"lost={res.lost_jobs} invariants={res.invariant_problems}")
    if len(report.schedules) != args["seeds"]:
        problems.append(
            f"campaign ran {len(report.schedules)} of {args['seeds']} schedules")
        failed = max(failed, args["seeds"] - len(report.schedules))
    return Outcome(args["seeds"], failed, problems, report.to_dict(),
                   {"sim_recovery_p99_ms": report.recovery_p99_ns() / 1e6})


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

#: Wrappers every GOLF runtime with leaks exercises in atomic mode.
_ATOMIC_GC = frozenset({
    "Runtime.__init__", "Scheduler.run", "Collector.collect",
    "detector.detect", "detector.expand_liveness_fixpoint", "mark_from",
    "Heap.sweep", "recovery.scan_and_mark_subgraph", "capture_provenance",
})
_RECLAIM = frozenset({"Scheduler.reclaim_deadlocked"})

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "registry-sweep",
        "thousands of short-lived runtimes: construction, spawn, small-heap "
        "GC and provenance dominate; the only workload with per-site truth",
        _sweep_prepare, _sweep_run, _sweep_judge,
        _ATOMIC_GC | _RECLAIM | {"run_microbenchmark"}),
    Workload(
        "svc-leak-atomic",
        "Table 2 service with 10% double-send leaks: host time sits in "
        "mark_from and the restart fixpoint; the marking/detector workload",
        _leak_prepare, _leak_run_atomic, _leak_judge,
        _ATOMIC_GC | _RECLAIM | {"run_controlled"}),
    Workload(
        "svc-leak-incremental",
        "same service under gc_step budgets and the write barrier: a marking "
        "change that wins on atomic and loses here must show",
        _leak_prepare, _leak_run_incremental, _leak_judge,
        (_ATOMIC_GC - {"Heap.sweep", "detector.detect"}) | _RECLAIM
        | {"run_controlled", "Collector.gc_step", "drain_budget",
           "push_roots"},
        reference="svc-leak-atomic", paired_tolerance=0.01),
    Workload(
        "svc-prod",
        "Table 3 / Listing 7 service: scheduler, dispatch, channels and "
        "timers with little GC; GC-side changes must read no change here",
        _prod_prepare, _prod_run, _prod_judge,
        _ATOMIC_GC | _RECLAIM | {"run_production"}),
    Workload(
        "svc-prod-observed",
        "svc-prod with hub, tracer and 1000 ms TSDB scraper on: the hook "
        "sites used the other way; its ratio to svc-prod is observer cost",
        _prod_prepare, _prod_run_observed, _prod_judge,
        _ATOMIC_GC | _RECLAIM | {"run_production",
                                 "TelemetryHub.scrape_tick"},
        reference="svc-prod"),
    Workload(
        "fleet-4shard",
        "router, 50 ms shard stepping, always-on 5 ms daemon, per-shard hub "
        "and aggregation: the mixed interpreter / GC / daemon workload",
        _fleet_prepare, _fleet_run, _fleet_judge,
        _ATOMIC_GC | _RECLAIM | {
            "run_fleet", "Router.build_table", "ShardRunner.__init__",
            "ShardRunner.step", "FleetResult.__init__",
            "Collector.detect_only"}),
    Workload(
        "recovery-campaign",
        "daemon-cadence detection, checkpoint/restart and the chaos injector "
        "at every yield: the only workload using core.checkpoint and chaos",
        _campaign_prepare, _campaign_run, _campaign_judge,
        _ATOMIC_GC | {
            "run_recovery_campaign", "run_checkpointed",
            "Collector.detect_only", "Subsystem.take_checkpoint",
            "CheckpointManager.process_pending"}),
)}
