"""Chaos schedules, campaigns and their verdicts.

A *schedule* is one microbenchmark run with a fault plan installed; a
*campaign* sweeps many seeded schedules across the microbenchmark corpus.
The oracle deliberately does **not** use the benchmarks' leak-label
ground truth: an injected panic can orphan a previously healthy partner
goroutine, creating genuine new leaks at unannotated sites, so comparing
against the labels would misclassify correct detections as false
positives.  Under chaos, soundness is checked by mechanisms that cannot
be confused by new leaks:

1. the scheduler's wake-of-reported tripwire — any attempt to resume a
   reported goroutine raises :class:`~repro.errors.SchedulerError`
   mentioning "GOLF soundness violation" (a reported goroutine that was
   actually live *will* eventually be woken by its peer);
2. :func:`~repro.runtime.invariants.check_invariants` after every fired
   fault and again after quiescence;
3. idempotence — once a schedule quiesces, two extra GC cycles must
   detect and reclaim exactly nothing.

A schedule that ends in a global deadlock (``fatal error: all goroutines
are asleep``) is an *organic* outcome: killing the right goroutine can
strand everyone else, and Go would crash the same way.  It is recorded,
not counted as a failure.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.chaos.injector import FaultInjector
from repro.chaos.plan import FaultPlan
from repro.chaos.scenarios import Scenario, get_scenario
from repro.core.config import GolfConfig
from repro.errors import SchedulerError
from repro.microbench.harness import run_microbenchmark
from repro.microbench.registry import Microbenchmark, all_benchmarks


class ScheduleResult:
    """Everything observed during one fault schedule."""

    __slots__ = ("benchmark", "procs", "seed", "scenario", "status",
                 "panic", "yield_points", "injected", "rejected",
                 "injected_by_kind", "trace", "violations",
                 "soundness_errors", "global_deadlock", "reports",
                 "reclaimed", "goroutine_panics", "idempotent", "alerts")

    def __init__(self, benchmark: str, procs: int, seed: int,
                 scenario: str):
        self.benchmark = benchmark
        self.procs = procs
        self.seed = seed
        self.scenario = scenario
        self.status = ""
        self.panic: Optional[str] = None
        self.yield_points = 0
        self.injected = 0
        self.rejected = 0
        self.injected_by_kind: Dict[str, int] = {}
        self.trace: List[Dict[str, object]] = []
        self.violations: List[str] = []
        self.soundness_errors: List[str] = []
        self.global_deadlock = False
        self.reports = 0
        self.reclaimed = 0
        self.goroutine_panics = 0
        self.idempotent = True
        #: Alert transitions observed by the telemetry hub's SLO rules
        #: during this schedule (empty unless the hub scrapes a TSDB).
        self.alerts: List[Dict[str, object]] = []

    @property
    def clean(self) -> bool:
        """No soundness error, no invariant violation, idempotent."""
        return (not self.soundness_errors and not self.violations
                and self.idempotent)

    def to_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "procs": self.procs,
            "seed": self.seed,
            "scenario": self.scenario,
            "status": self.status,
            "panic": self.panic,
            "yield_points": self.yield_points,
            "injected": self.injected,
            "rejected": self.rejected,
            "injected_by_kind": dict(self.injected_by_kind),
            "violations": list(self.violations),
            "soundness_errors": list(self.soundness_errors),
            "global_deadlock": self.global_deadlock,
            "reports": self.reports,
            "reclaimed": self.reclaimed,
            "goroutine_panics": self.goroutine_panics,
            "idempotent": self.idempotent,
            "alerts": list(self.alerts),
            "trace": list(self.trace),
        }

    def __repr__(self) -> str:
        verdict = "clean" if self.clean else "DIRTY"
        return (
            f"<schedule {self.benchmark} seed={self.seed} "
            f"{self.scenario} injected={self.injected} "
            f"reports={self.reports} {verdict}>"
        )


def run_chaos_schedule(
    bench: Microbenchmark,
    seed: int = 0,
    scenario: str = "mixed",
    procs: int = 2,
    config: Optional[GolfConfig] = None,
    keep_trace: bool = True,
    telemetry=None,
) -> ScheduleResult:
    """Run one benchmark under one seeded fault plan and judge it.

    The schedule reuses the microbenchmark template (settle + forced GC
    tail) via the harness's ``rt_hook``, then drives extra cycles to
    quiescence and applies the oracle described in the module docstring.

    A :class:`~repro.telemetry.TelemetryHub` passed as ``telemetry``
    observes the schedule's runtime: injected faults, GC cycles, leak
    reports (fingerprinted for cross-campaign dedup), and incidents.
    """
    spec = get_scenario(scenario)
    result = ScheduleResult(bench.name, procs, seed, scenario)
    plan = FaultPlan(seed, spec)
    captured: List = []
    scraping = telemetry is not None and telemetry.tsdb is not None
    if scraping:
        # Each schedule's runtime restarts the virtual clock at zero, so
        # carrying series across schedules would interleave timelines;
        # alert states likewise must not leak between runtimes.
        telemetry.tsdb.clear()
        telemetry.alerts.reset_states()
    timeline_mark = len(telemetry.alerts.timeline) if scraping else 0

    def hook(rt) -> None:
        if telemetry is not None:
            telemetry.attach(rt)
        if scraping:
            rt.start_metrics_scrape(telemetry)
        captured.append(FaultInjector(rt, plan).install())

    bench_result = run_microbenchmark(
        bench, procs=procs, seed=seed, config=config, rt_hook=hook)
    injector = captured[0]
    rt = injector.rt

    result.status = bench_result.status
    result.panic = bench_result.panic
    if bench_result.status == "runtime-failure" and bench_result.panic:
        if "soundness violation" in bench_result.panic:
            result.soundness_errors.append(bench_result.panic)
        elif "all goroutines are asleep" in bench_result.panic:
            result.global_deadlock = True

    # Stop injecting: the post-run phase judges the runtime, it must not
    # keep perturbing it.
    injector.uninstall()

    # Drive detection/recovery to quiescence, then assert idempotence:
    # two further cycles on a quiescent runtime must find nothing.
    if not result.soundness_errors:
        try:
            rt.gc_until_quiescent()
            for _ in range(2):
                cs = rt.gc(reason="chaos-idempotence")
                if cs.deadlocks_detected or cs.goroutines_reclaimed:
                    result.idempotent = False
        except SchedulerError as err:
            result.soundness_errors.append(str(err))

    result.violations.extend(injector.violations)
    for problem in rt.check_invariants():
        result.violations.append(f"post-quiescence: {problem}")

    result.yield_points = injector.yield_points
    result.injected = plan.injected_count()
    result.rejected = plan.rejected_count()
    result.injected_by_kind = plan.injected_by_kind()
    if keep_trace:
        result.trace = plan.trace_dicts()
    result.reports = rt.reports.total()
    result.reclaimed = rt.collector.stats.total_goroutines_reclaimed
    result.goroutine_panics = len(rt.sched.goroutine_panics)
    if scraping:
        rt.stop_metrics_scrape()
        # Final scrape so alert states see the post-quiescence values,
        # then keep only this schedule's slice of the hub timeline —
        # the campaign hub accumulates transitions across schedules.
        telemetry.scrape_tick(rt.clock.now)
        result.alerts = [dict(e)
                         for e in telemetry.alerts.timeline[timeline_mark:]]
    rt.shutdown()
    return result


class ChaosReport:
    """Aggregate verdict of a chaos campaign."""

    def __init__(self, scenario: str, procs: int, base_seed: int):
        self.scenario = scenario
        self.procs = procs
        self.base_seed = base_seed
        self.schedules: List[ScheduleResult] = []

    # -- verdicts -----------------------------------------------------------

    @property
    def false_positives(self) -> int:
        """Soundness violations: reported-then-woken goroutines."""
        return sum(len(s.soundness_errors) for s in self.schedules)

    @property
    def invariant_violations(self) -> int:
        return sum(len(s.violations) for s in self.schedules)

    @property
    def non_idempotent(self) -> int:
        return sum(1 for s in self.schedules if not s.idempotent)

    @property
    def clean(self) -> bool:
        return all(s.clean for s in self.schedules)

    # -- aggregates ---------------------------------------------------------

    def total_injected(self) -> int:
        return sum(s.injected for s in self.schedules)

    def injected_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for s in self.schedules:
            for kind, n in s.injected_by_kind.items():
                counts[kind] = counts.get(kind, 0) + n
        return counts

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "procs": self.procs,
            "base_seed": self.base_seed,
            "schedules_run": len(self.schedules),
            "total_injected": self.total_injected(),
            "injected_by_kind": self.injected_by_kind(),
            "false_positives": self.false_positives,
            "invariant_violations": self.invariant_violations,
            "non_idempotent": self.non_idempotent,
            "global_deadlocks": sum(
                1 for s in self.schedules if s.global_deadlock),
            "goroutine_panics": sum(
                s.goroutine_panics for s in self.schedules),
            "reports": sum(s.reports for s in self.schedules),
            "reclaimed": sum(s.reclaimed for s in self.schedules),
            "clean": self.clean,
            "schedules": [s.to_dict() for s in self.schedules],
        }

    def format(self) -> str:
        d = self.to_dict()
        lines = [
            f"chaos campaign: scenario={self.scenario} "
            f"schedules={d['schedules_run']} base_seed={self.base_seed}",
            f"  faults injected : {d['total_injected']} "
            f"({', '.join(f'{k}={n}' for k, n in sorted(d['injected_by_kind'].items()))})",
            f"  false positives : {d['false_positives']}",
            f"  invariant viols : {d['invariant_violations']}",
            f"  non-idempotent  : {d['non_idempotent']}",
            f"  global deadlocks: {d['global_deadlocks']} (organic outcome)",
            f"  leaks reported  : {d['reports']}  reclaimed: {d['reclaimed']}",
            f"  verdict         : {'CLEAN' if self.clean else 'DIRTY'}",
        ]
        for s in self.schedules:
            if not s.clean:
                lines.append(f"  DIRTY {s!r}")
                lines.extend(f"    {v}" for v in s.soundness_errors)
                lines.extend(f"    {v}" for v in s.violations)
        return "\n".join(lines)


def run_chaos_campaign(
    seeds: int = 50,
    scenario: str = "mixed",
    base_seed: int = 0,
    procs: int = 2,
    config: Optional[GolfConfig] = None,
    corpus: Optional[List[Microbenchmark]] = None,
    keep_traces: bool = False,
    telemetry=None,
    run_id: Optional[str] = None,
) -> ChaosReport:
    """Sweep ``seeds`` fault schedules across the microbenchmark corpus.

    Schedule *i* runs benchmark ``corpus[i % len(corpus)]`` with seed
    ``base_seed + i``, so a campaign of at least ``len(corpus)``
    schedules covers every benchmark and every campaign is reproducible
    from ``(seeds, scenario, base_seed, procs)``.

    With a ``telemetry`` hub, the whole campaign is fingerprinted under
    one run id (default derived from the campaign parameters): repeating
    an identical campaign aggregates onto the same fingerprint records
    instead of re-reporting every leak.
    """
    corpus = corpus if corpus is not None else all_benchmarks()
    report = ChaosReport(scenario, procs, base_seed)
    if telemetry is not None:
        telemetry.fingerprints.begin_run(
            run_id
            or f"chaos-{scenario}-p{procs}-b{base_seed}-n{seeds}-"
               f"{telemetry.fingerprints.runs_started + 1}")
    for i in range(seeds):
        bench = corpus[i % len(corpus)]
        report.schedules.append(run_chaos_schedule(
            bench, seed=base_seed + i, scenario=scenario, procs=procs,
            config=config, keep_trace=keep_traces, telemetry=telemetry))
    return report
