"""The differential-equivalence harness: one pair table, one corpus.

The repo defends the paper's soundness claim by *differential* checks —
two ways of running the same program that must be observably the same:
atomic vs incremental GC, the dispatch table vs the legacy interpreter,
every observer (daemon, scraper, hub, tracer) on vs off,
and §5.3's restart vs on-the-fly root expansion.  This module is the
only place that defines what a run *produced* (:func:`fingerprint`),
how two of those are compared (:func:`diff_fields`), which
configurations are paired (:data:`PAIRS`), and what the outcome looks
like (:class:`EquivalenceResult`).  Every pair is swept over the same
125-program ground-truth corpus (:func:`corpus`) by :func:`sweep`;
``python -m repro equiv`` and the test suite both go through
:func:`run_pair`.  See docs/EQUIVALENCE.md.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.core.config import GolfConfig
from repro.gc.collector import use_restart_fixpoint
from repro.microbench.harness import MicrobenchResult, run_microbenchmark
from repro.microbench.registry import Microbenchmark, all_benchmarks
from repro.runtime import executor
from repro.runtime.api import Runtime
from repro.telemetry.hub import TelemetryHub

Diff = Tuple[str, Any, Any]


def fingerprint(rt: Runtime, result: MicrobenchResult) -> Dict[str, Any]:
    """Everything observable about one finished run.

    The first three fields are the *verdict* (what a user of the
    detector sees); the rest pin the collector's and scheduler's
    accounting, so a fast path that reaches the right verdict by a
    different amount of work is still caught.
    """
    stats = rt.collector.stats
    return {
        "status": result.status,
        "detected": sorted(result.detected),
        "reports": [r.format() for r in rt.reports],
        "panic": result.panic,
        "report_count": result.report_count,
        "detection_cycles": [(r.goid, r.gc_cycle) for r in rt.reports],
        "num_gc": result.num_gc,
        "reclaimed": result.reclaimed,
        "pause_total_ns": stats.pause_total_ns,
        "max_pause_ns": stats.max_pause_ns,
        "instructions": rt.sched.instructions_executed,
        "final_clock_ns": rt.clock.now,
    }


def diff_fields(a: Mapping[str, Any], b: Mapping[str, Any],
                fields: Optional[Iterable[str]] = None) -> List[Diff]:
    """``(field, a_value, b_value)`` for every listed field that differs.

    ``fields`` defaults to every key of either side, sorted; a field
    missing from one side compares as ``None``.
    """
    if fields is None:
        fields = sorted(set(a) | set(b))
    return [(f, a.get(f), b.get(f)) for f in fields if a.get(f) != b.get(f)]


class Program(NamedTuple):
    """One ground-truth program: a registry benchmark and which body."""

    bench: Microbenchmark
    fixed: bool

    @property
    def name(self) -> str:
        return f"{self.bench.name} [{'fixed' if self.fixed else 'buggy'}]"

    @property
    def body(self) -> Callable:
        return self.bench.fixed if self.fixed else self.bench.body


def corpus() -> List[Program]:
    """The ground-truth programs: every leaky body, then its fixed
    variant where the registry carries one (73 + 52 = 125)."""
    return [Program(bench, fixed)
            for bench in all_benchmarks()
            for fixed in (False, True)
            if not fixed or bench.fixed is not None]


class Leg(NamedTuple):
    """One way of running a program: a config factory and/or a hook
    called with ``(rt, program)`` before ``main`` is spawned."""

    label: str
    config: Callable[[], GolfConfig] = GolfConfig
    hook: Optional[Callable[[Runtime, Program], None]] = None


class Pair(NamedTuple):
    """One row of the table: two legs that must fingerprint the same."""

    name: str
    leg_a: Leg
    leg_b: Leg
    #: Fingerprint fields this pair legitimately moves, and why.
    excluded: Tuple[str, ...] = ()
    why_excluded: str = ""
    #: When set, the exclusion applies only to runs where this holds of
    #: leg B's finished runtime; every other run compares all fields.
    excluded_when: Optional[Callable[[Runtime], Any]] = None
    #: Non-vacuity: counters read off leg B's finished runtime, summed
    #: over the sweep.  Each one has to end above zero, or leg B never
    #: did what the pair is about.
    witness: Optional[Callable[[Runtime], Dict[str, int]]] = None


#: Cadence of the ticker-driven observers: the registry programs run
#: ~3.1 virtual ms, so each ticks three times per program.
_TICK_MS = 1.0


def _legacy_dispatch(rt: Runtime, _program: Program) -> None:
    rt.sched._execute = executor.execute_legacy


def _config(**overrides: Any) -> Callable[[], GolfConfig]:
    return lambda: GolfConfig(**overrides)


PAIRS: Dict[str, Pair] = {p.name: p for p in (
    Pair("gc_mode",
         Leg("atomic", _config(gc_mode="atomic")),
         Leg("incremental", _config(gc_mode="incremental")),
         excluded=("final_clock_ns",),
         why_excluded=(
             "splitting one atomic pause into setup + termination "
             "windows moves where timer deadlines land relative to GC, "
             "so a timeout-driven program can end a few pause-widths "
             "apart with every verdict, cycle number and pause total "
             "identical (grpc/3017 and hugo/3261 at seeds 7 and 11, "
             "etcd/7443 at seed 11, all buggy)"),
         witness=lambda rt: {"mark_steps": sum(
             cs.mark_steps for cs in rt.collector.stats.cycles)}),
    Pair("dispatch",
         Leg("table"), Leg("legacy", hook=_legacy_dispatch)),
    Pair("daemon",
         Leg("bare"),
         Leg("daemon", hook=lambda rt, _p: rt.detect_partial_deadlock(
             interval_ms=_TICK_MS)),
         excluded=("detection_cycles", "pause_total_ns", "final_clock_ns"),
         why_excluded=(
             "a daemon pass landing between a leak's manifestation and "
             "the next GC claims the leak first (its purpose), so the "
             "report carries the earlier cycle number and the next "
             "termination pause no longer charges that goroutine's "
             "liveness checks; excluded only on the runs where the "
             "daemon did report first (three timeout-driven programs)"),
         excluded_when=lambda rt: rt.detection_daemon.stats.leaks_reported,
         witness=lambda rt: {
             "daemon_checks": rt.detection_daemon.stats.checks,
             "first_reports": rt.detection_daemon.stats.leaks_reported}),
    Pair("scraper",
         Leg("hub", hook=lambda rt, _p: rt.enable_telemetry()),
         Leg("hub+scraper", hook=lambda rt, _p: rt.enable_telemetry(
             scrape_interval_ms=_TICK_MS)),
         witness=lambda rt: {"scrapes": rt.metrics_scraper.scrapes}),
    Pair("telemetry",
         Leg("bare"),
         Leg("hub", hook=lambda rt, _p: TelemetryHub().attach(rt)),
         witness=lambda rt: {"recorded_events": len(rt.telemetry.recorder)}),
    Pair("tracer",
         Leg("bare"), Leg("traced", hook=lambda rt, _p: rt.enable_tracing()),
         witness=lambda rt: {"trace_events": len(rt.tracer)}),
    Pair("fixpoint",
         Leg("restart", hook=lambda rt, _p: use_restart_fixpoint(
             rt.collector)),
         Leg("on-the-fly"),
         excluded=("pause_total_ns", "final_clock_ns"),
         why_excluded=(
             "the termination pause charges NS_PER_LIVENESS_CHECK per "
             "check and on-the-fly performs fewer of them (one per "
             "waiter of a newly marked object instead of a rescan of "
             "all candidates), so pause totals and everything timed "
             "after a detection cycle shift")),
)}


class Mismatch(NamedTuple):
    """One program on which the two legs disagreed."""

    program: str
    diffs: List[Diff]


class EquivalenceResult:
    """Outcome of comparing one pair's legs over a corpus."""

    def __init__(self, pair: Pair, procs: int, seed: int):
        self.pair = pair
        self.procs = procs
        self.seed = seed
        self.runs = 0
        self.mismatches: List[Mismatch] = []
        self.witness: Dict[str, int] = {}

    def add(self, program: str, diffs: List[Diff],
            counters: Optional[Mapping[str, int]] = None) -> None:
        self.runs += 1
        if diffs:
            self.mismatches.append(Mismatch(program, diffs))
        for key, value in (counters or {}).items():
            self.witness[key] = self.witness.get(key, 0) + value

    @property
    def vacuous(self) -> List[str]:
        """Witness counters that never moved."""
        return [k for k in self.witness if not self.witness[k]]

    @property
    def clean(self) -> bool:
        return not self.mismatches and not self.vacuous

    def format(self) -> str:
        a, b = self.pair.leg_a.label, self.pair.leg_b.label
        lines = [
            f"equivalence {self.pair.name}: {a} vs {b} "
            f"(procs={self.procs}, seed={self.seed})",
            f"  runs compared   : {self.runs}",
        ]
        if self.pair.excluded:
            lines.append("  fields excluded : "
                         + ", ".join(self.pair.excluded))
        for key in sorted(self.witness):
            lines.append(f"  {key:<16}: {self.witness[key]}")
        lines.append(f"  mismatches      : {len(self.mismatches)}")
        for program, diffs in self.mismatches:
            lines.append(f"  {program}:")
            lines.extend(f"    {field}: {a}={va!r} {b}={vb!r}"
                         for field, va, vb in diffs)
        for key in self.vacuous:
            lines.append(f"  VACUOUS: {key} stayed 0 — the {b} leg never "
                         f"exercised the pair")
        lines.append("  verdict         : "
                     + ("EQUIVALENT" if self.clean else "DIVERGED"))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pair": self.pair.name,
            "legs": [self.pair.leg_a.label, self.pair.leg_b.label],
            "procs": self.procs,
            "seed": self.seed,
            "excluded_fields": list(self.pair.excluded),
            "runs": self.runs,
            "witness": dict(sorted(self.witness.items())),
            "mismatches": [
                {"program": program,
                 "diffs": [{"field": f, "a": repr(va), "b": repr(vb)}
                           for f, va, vb in diffs]}
                for program, diffs in self.mismatches],
            "clean": self.clean,
        }


def run_leg(leg: Leg, program: Program, procs: int, seed: int
            ) -> Tuple[Runtime, Dict[str, Any]]:
    """Run ``program`` one way; returns the runtime and its fingerprint."""
    captured: List[Runtime] = []

    def hook(rt: Runtime) -> None:
        captured.append(rt)
        if leg.hook is not None:
            leg.hook(rt, program)

    result = run_microbenchmark(
        program.bench, procs=procs, seed=seed, config=leg.config(),
        use_fixed=program.fixed, rt_hook=hook)
    return captured[0], fingerprint(captured[0], result)


def compare(pair: Pair, program: Program, procs: int, seed: int,
            into: Optional[EquivalenceResult] = None) -> List[Diff]:
    """Run ``program`` under both legs; the fields on which they differ
    (also recorded, with leg B's witness counters, in ``into``)."""
    _, a = run_leg(pair.leg_a, program, procs, seed)
    rt_b, b = run_leg(pair.leg_b, program, procs, seed)
    excluding = pair.excluded_when is None or pair.excluded_when(rt_b)
    diffs = diff_fields(a, b, [f for f in a
                               if not (excluding and f in pair.excluded)])
    if into is not None:
        into.add(program.name, diffs,
                 pair.witness(rt_b) if pair.witness is not None else None)
    return diffs


def sweep(pair: Pair, procs: int = 2, seed: int = 7) -> EquivalenceResult:
    """Compare ``pair``'s legs on every program of the corpus."""
    result = EquivalenceResult(pair, procs, seed)
    for program in corpus():
        compare(pair, program, procs, seed, into=result)
    return result


def run_pair(name: str, procs: int = 2, seed: int = 7) -> EquivalenceResult:
    """Run one named pair over the corpus."""
    return sweep(PAIRS[name], procs, seed)
