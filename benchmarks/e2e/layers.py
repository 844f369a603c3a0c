"""Timing wrappers around the layers' public entry points.

Installed from here only — nothing under ``src/`` knows about them.
Each wrapper opens a span named after its *layer* (this repo's module
names), tallies the counts visible at that boundary (arguments, return
values, public attributes), and closes the span.  Per-instruction and
per-hook sites (``executor.execute``, hub ``on_*``) are deliberately not
wrapped: they are covered by the probes and by the paired observed
workload.

Functions imported by name into other modules are rebound in every
module that holds the name, so a moved binding shows up as a wrapper
that never fires — which :meth:`Tracing.verify` turns into an error,
never a silent zero.  The same method checks every *exact* count
against the program's own public counter.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.chaos import recovery as chaos_recovery
from repro.core import checkpoint, detector, recovery
from repro.fleet import aggregate as fleet_aggregate
from repro.fleet import router as fleet_router
from repro.fleet import shard as fleet_shard
from repro.fleet import supervisor as fleet_supervisor
from repro.gc import collector as gc_collector
from repro.gc import heap as gc_heap
from repro.gc import marking
from repro.gc.phases import GCPhase
from repro.microbench import harness
from repro.runtime import api, scheduler
from repro.service import checkpointed, controlled, production
from repro.service.stats import percentile
from repro.telemetry import hub as telemetry_hub
from repro.trace import provenance

from benchmarks.e2e.spans import SpanRecorder, self_time_by_name

#: The root span the worker opens around the measured region; its self
#: time is what no layer claimed.
ROOT = "bench"

#: Layer names, in report order (every span name is one of these).
LAYERS = (
    "runtime.api", "runtime.scheduler", "gc.collector", "gc.marking",
    "gc.heap", "core.detector", "core.recovery", "daemon",
    "core.checkpoint", "trace", "telemetry", "microbench", "service",
    "chaos", "fleet",
)


class WrapperError(RuntimeError):
    """A wrapper never fired, or a count disagrees with the program."""


class Tracing:
    """The installed wrapper set plus everything they tallied."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        #: wrapper key -> number of calls seen
        self.fired: Counter = Counter()
        #: exact counts tallied at the wrappers
        self.counts: Counter = Counter()
        #: the same quantities read from the program's own counters
        self.own: Counter = Counter()
        #: host seconds of each completed GC cycle
        self.cycle_s: List[float] = []
        self._cycle_acc: Dict[int, float] = {}
        self._runtimes: List[Any] = []
        self._patches: List[tuple] = []
        self._detect_depth = 0

    # -- installation -------------------------------------------------------

    def _patch(self, owner: Any, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _span(self, owners: Iterable[Any], attr: str, key: str, layer: str,
              after: Optional[Callable[[Any, tuple], None]] = None,
              tag_of: Optional[Callable[[tuple], Any]] = None) -> None:
        """Wrap ``attr`` on each owner in a ``layer`` span counted as
        ``key``; ``after(result, args)`` tallies on normal return."""
        rec, fired = self.rec, self.fired

        def make(fn):
            def wrapper(*args, **kwargs):
                fired[key] += 1
                idx = rec.begin(layer,
                                tag_of(args) if tag_of is not None else None)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.end(idx)
                if after is not None:
                    after(result, args)
                return result
            return wrapper

        for owner in owners:
            self._patch(owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> "Tracing":
        counts = self.counts
        span = self._span

        # runtime ------------------------------------------------------------
        span([api.Runtime], "__init__", "Runtime.__init__", "runtime.api",
             after=lambda _, args: self._runtimes.append(args[0]))
        self._patch(scheduler.Scheduler, "run", self._make_run)
        def reclaimed(_result, _args):
            counts["core.recovery.reclaimed"] += 1

        span([scheduler.Scheduler], "reclaim_deadlocked",
             "Scheduler.reclaim_deadlocked", "core.recovery",
             after=reclaimed)

        # gc -----------------------------------------------------------------
        self._patch(gc_collector.Collector, "collect", self._make_collect)
        self._patch(gc_collector.Collector, "gc_step", self._make_gc_step)
        span([gc_collector.Collector], "request_gc", "Collector.request_gc",
             "gc.collector")
        span([gc_collector.Collector], "detect_only", "Collector.detect_only",
             "daemon", after=self._after_detect_only)

        def marked(result, _args):
            counts["gc.marking.work_units"] += result[0]

        span([marking, gc_collector, detector], "mark_from", "mark_from",
             "gc.marking", after=marked)
        span([marking, gc_collector], "drain_budget", "drain_budget",
             "gc.marking", after=marked)
        span([marking, gc_collector], "push_roots", "push_roots",
             "gc.marking", after=marked)

        def swept(result, _args):
            counts["gc.heap.swept_objects"] += result[0].freed_objects

        span([gc_heap.Heap], "sweep", "Heap.sweep", "gc.heap", after=swept)

        # detector / recovery / checkpoint -------------------------------------
        self._patch(detector, "detect", self._make_detect)
        self._patch(detector, "expand_liveness_fixpoint", self._make_expand)

        def subgraph(result, _args):
            counts["core.recovery.work_units"] += result[1]

        span([recovery], "scan_and_mark_subgraph",
             "recovery.scan_and_mark_subgraph", "core.recovery",
             after=subgraph)
        span([checkpoint.Subsystem], "take_checkpoint",
             "Subsystem.take_checkpoint", "core.checkpoint")
        self._patch(checkpoint.CheckpointManager, "process_pending",
                    self._make_process_pending)

        # observers --------------------------------------------------------------
        span([provenance], "capture_provenance", "capture_provenance",
             "trace")
        span([telemetry_hub.TelemetryHub], "scrape_tick",
             "TelemetryHub.scrape_tick", "telemetry")

        # drivers ----------------------------------------------------------------
        span([harness], "run_microbenchmark", "run_microbenchmark",
             "microbench", after=lambda *_: self.harvest())
        span([checkpointed, chaos_recovery], "run_checkpointed",
             "run_checkpointed", "service", after=lambda *_: self.harvest())
        span([controlled], "run_controlled", "run_controlled", "service")
        span([production], "run_production", "run_production", "service")
        span([chaos_recovery], "run_recovery_campaign",
             "run_recovery_campaign", "chaos")
        span([fleet_supervisor], "run_fleet", "run_fleet", "fleet")
        span([fleet_router.Router], "build_table", "Router.build_table",
             "fleet", tag_of=lambda _: "route")
        span([fleet_shard.ShardRunner], "__init__", "ShardRunner.__init__",
             "fleet", tag_of=lambda args: f"build:{args[1].shard_id}")
        span([fleet_shard.ShardRunner], "step", "ShardRunner.step", "fleet",
             tag_of=lambda args: f"step:{args[0].spec.shard_id}")
        span([fleet_aggregate.FleetResult], "__init__",
             "FleetResult.__init__", "fleet", tag_of=lambda _: "aggregate")
        return self

    # -- wrappers that need state before the call ------------------------------

    def _make_run(self, fn):
        rec, fired, counts = self.rec, self.fired, self.counts

        def run(sched, *args, **kwargs):
            fired["Scheduler.run"] += 1
            before = sched.instructions_executed
            idx = rec.begin("runtime.scheduler")
            try:
                return fn(sched, *args, **kwargs)
            finally:
                rec.end(idx)
                counts["runtime.scheduler.vinstr"] += (
                    sched.instructions_executed - before)
        return run

    def _make_collect(self, fn):
        rec, fired, counts = self.rec, self.fired, self.counts

        def collect(collector, *args, **kwargs):
            fired["Collector.collect"] += 1
            idx = rec.begin("gc.collector")
            try:
                return fn(collector, *args, **kwargs)
            finally:
                took = rec.end(idx)
                # Incremental cycles are counted where they complete, in
                # gc_step; collect() merely drives those steps.
                if not collector.config.incremental:
                    counts["gc.collector.cycles"] += 1
                    self.cycle_s.append(took)
        return collect

    def _make_gc_step(self, fn):
        rec, fired, counts = self.rec, self.fired, self.counts
        idle, sweeping = GCPhase.IDLE, GCPhase.SWEEPING
        acc = self._cycle_acc

        def gc_step(collector):
            phase = collector.phase
            if phase is idle:
                # The scheduler polls this hook every tick.
                return fn(collector)
            fired["Collector.gc_step"] += 1
            counts["gc.collector.steps"] += 1
            in_sweep = phase is sweeping
            live_before = collector.heap.live_objects
            idx = rec.begin("gc.heap" if in_sweep else "gc.collector")
            try:
                return fn(collector)
            finally:
                key = id(collector)
                acc[key] = acc.get(key, 0.0) + rec.end(idx)
                if in_sweep:
                    counts["gc.heap.swept_objects"] += (
                        live_before - collector.heap.live_objects)
                    if collector.phase is not sweeping:
                        counts["gc.collector.cycles"] += 1
                        self.cycle_s.append(acc.pop(key))
        return gc_step

    def _after_detect_only(self, cs, _args) -> None:
        if cs is not None:
            self.counts["daemon.checks"] += 1
            # Daemon passes are not recorded in GCStats.cycles; their
            # marking work is only visible on the returned stats.
            self.own["mark_work_units"] += cs.mark_work_units
            self.own["liveness_checks"] += cs.liveness_checks

    def _make_detect(self, fn):
        rec, fired, counts = self.rec, self.fired, self.counts

        def detect(*args, **kwargs):
            fired["detector.detect"] += 1
            idx = rec.begin("core.detector")
            self._detect_depth += 1
            try:
                det = fn(*args, **kwargs)
            finally:
                self._detect_depth -= 1
                rec.end(idx)
            counts["core.detector.fixpoints"] += 1
            counts["core.detector.mark_iterations"] += det.mark_iterations
            counts["core.detector.liveness_checks"] += det.liveness_checks
            counts["core.detector.deadlocked"] += len(det.deadlocked)
            return det
        return detect

    def _make_expand(self, fn):
        rec, fired, counts = self.rec, self.fired, self.counts

        def expand_liveness_fixpoint(heap, candidates, result):
            fired["detector.expand_liveness_fixpoint"] += 1
            nested = self._detect_depth > 0
            checks, iters = result.liveness_checks, result.mark_iterations
            idx = rec.begin("core.detector")
            try:
                deadlocked = fn(heap, candidates, result)
            finally:
                rec.end(idx)
            if not nested:
                # Called directly (incremental mark termination): the
                # enclosing detect() is not there to tally.
                counts["core.detector.fixpoints"] += 1
                counts["core.detector.mark_iterations"] += (
                    result.mark_iterations - iters)
                counts["core.detector.liveness_checks"] += (
                    result.liveness_checks - checks)
                counts["core.detector.deadlocked"] += len(deadlocked)
            return deadlocked
        return expand_liveness_fixpoint

    def _make_process_pending(self, fn):
        rec, fired, counts = self.rec, self.fired, self.counts

        def process_pending(manager):
            fired["CheckpointManager.process_pending"] += 1
            before = len(manager.recoveries)
            idx = rec.begin("core.checkpoint")
            try:
                return fn(manager)
            finally:
                rec.end(idx)
                counts["core.checkpoint.recoveries"] += (
                    len(manager.recoveries) - before)
        return process_pending

    # -- the program's own counters ------------------------------------------------

    def harvest(self) -> None:
        """Fold the finished runtimes' public counters into ``own`` and
        let the runtimes go (a sweep builds thousands)."""
        own = self.own
        for rt in self._runtimes:
            own["runtimes"] += 1
            own["vinstr"] += rt.sched.instructions_executed
            stats = rt.collector.stats
            own["num_gc"] += stats.num_gc
            for cs in stats.cycles:
                own["mark_work_units"] += (cs.mark_work_units
                                           + cs.rescan_work_units)
                own["liveness_checks"] += cs.liveness_checks
                own["swept_objects"] += cs.swept_objects
                own["reclaimed"] += cs.goroutines_reclaimed
            own["deadlocked"] += rt.reports.total()
            daemon = rt.detection_daemon
            if daemon is not None:
                own["daemon_checks"] += daemon.stats.checks
            manager = rt.collector.recovery_manager
            if manager is not None:
                own["recoveries"] += manager.total_recoveries()
            hub = rt.telemetry
            if hub is not None:
                own["dropped"] += hub.recorder.dropped
                if hub.tsdb is not None:
                    own["dropped"] += hub.tsdb.dropped_points
            if rt.tracer is not None:
                own["dropped"] += rt.tracer.dropped
        self._runtimes.clear()

    #: (what, count tallied at the wrappers, the program's own counter)
    EXACT = (
        ("runtime.api.runtimes", "Runtime.__init__", "runtimes"),
        ("runtime.scheduler.vinstr", "runtime.scheduler.vinstr", "vinstr"),
        ("gc.collector.cycles", "gc.collector.cycles", "num_gc"),
        ("gc.heap.swept_objects", "gc.heap.swept_objects", "swept_objects"),
        ("core.detector.liveness_checks", "core.detector.liveness_checks",
         "liveness_checks"),
        ("core.detector.deadlocked", "core.detector.deadlocked",
         "deadlocked"),
        ("core.recovery.reclaimed", "core.recovery.reclaimed", "reclaimed"),
        ("daemon.checks", "daemon.checks", "daemon_checks"),
        ("core.checkpoint.recoveries", "core.checkpoint.recoveries",
         "recoveries"),
    )

    def verify(self, uses: Iterable[str]) -> None:
        """The wrapper self-test; raises :class:`WrapperError`."""
        self.harvest()
        silent = sorted(k for k in uses if not self.fired[k])
        if silent:
            raise WrapperError(
                f"wrapper(s) never fired (moved binding?): {silent}")
        wrong = []
        for what, tallied, own in self.EXACT:
            seen = (self.fired[tallied] if tallied == "Runtime.__init__"
                    else self.counts[tallied])
            if seen != self.own[own]:
                wrong.append(f"{what}: wrappers saw {seen}, "
                             f"program counted {self.own[own]}")
        marked = (self.counts["gc.marking.work_units"]
                  + self.counts["core.recovery.work_units"])
        if marked != self.own["mark_work_units"]:
            wrong.append(
                f"gc.marking.work_units: wrappers saw {marked} (marking + "
                f"recovery subgraph), CycleStats sum to "
                f"{self.own['mark_work_units']}")
        if wrong:
            raise WrapperError("exact counts disagree: " + "; ".join(wrong))

    # -- per-layer metrics ---------------------------------------------------------

    def metrics(self, root: int) -> Dict[str, float]:
        """Per-layer numbers of the traced run whose root span is ``root``."""
        rec, counts, fired = self.rec, self.counts, self.fired
        span_s = rec.duration(root)
        own = self_time_by_name(rec)
        unattributed = own.pop(ROOT, 0.0)
        layer_s = {layer: own.get(layer, 0.0) for layer in LAYERS}

        def share(layer):
            return layer_s[layer] / span_s if span_s else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        def durations(layer, tag_prefix=""):
            return [rec.duration(i) for i, name in enumerate(rec.names)
                    if name == layer
                    and str(rec.tags[i] or "").startswith(tag_prefix)]

        new_runtime_s = sum(durations("runtime.api"))
        microbench_ms = sorted(d * 1e3 for d in durations("microbench"))
        schedule_ms = sorted(d * 1e3 for d in durations("service")
                             ) if fired["run_checkpointed"] else []
        cycle_ms = sorted(s * 1e3 for s in self.cycle_s)
        shard_s: Dict[str, float] = {}
        for i, name in enumerate(rec.names):
            tag = rec.tags[i]
            if name == "fleet" and isinstance(tag, str) and tag.startswith(
                    ("step:", "build:")):
                shard = tag.split(":", 1)[1]
                shard_s[shard] = shard_s.get(shard, 0.0) + rec.duration(i)
        vinstr = counts["runtime.scheduler.vinstr"]
        work = counts["gc.marking.work_units"]
        checks = counts["core.detector.liveness_checks"]
        return {
            "runtime.scheduler.self_s": layer_s["runtime.scheduler"],
            "runtime.scheduler.share": share("runtime.scheduler"),
            "runtime.scheduler.run_calls": fired["Scheduler.run"],
            "runtime.scheduler.vinstr": vinstr,
            "runtime.scheduler.ns_per_vinstr": ratio(
                layer_s["runtime.scheduler"] * 1e9, vinstr),
            "runtime.api.new_runtime_s": new_runtime_s,
            "runtime.api.runtimes": fired["Runtime.__init__"],
            "gc.collector.self_s": layer_s["gc.collector"],
            "gc.collector.share": share("gc.collector"),
            "gc.collector.cycles": counts["gc.collector.cycles"],
            "gc.collector.steps": counts["gc.collector.steps"],
            "gc.collector.ms_per_cycle_p50": percentile(cycle_ms, 0.5),
            "gc.collector.ms_per_cycle_max": cycle_ms[-1] if cycle_ms else 0.0,
            "gc.marking.self_s": layer_s["gc.marking"],
            "gc.marking.share": share("gc.marking"),
            "gc.marking.calls": (fired["mark_from"] + fired["drain_budget"]
                                 + fired["push_roots"]),
            "gc.marking.work_units": work,
            "gc.marking.ns_per_work_unit": ratio(
                layer_s["gc.marking"] * 1e9, work),
            "gc.heap.sweep_s": layer_s["gc.heap"],
            "gc.heap.sweep_share": share("gc.heap"),
            "gc.heap.swept_objects": counts["gc.heap.swept_objects"],
            "core.detector.self_s": layer_s["core.detector"],
            "core.detector.share": share("core.detector"),
            "core.detector.fixpoints": counts["core.detector.fixpoints"],
            "core.detector.mark_iterations":
                counts["core.detector.mark_iterations"],
            "core.detector.liveness_checks": checks,
            "core.detector.deadlocked": counts["core.detector.deadlocked"],
            "core.detector.useful_ratio": ratio(
                counts["core.detector.deadlocked"], checks),
            "core.recovery.self_s": layer_s["core.recovery"],
            "core.recovery.share": share("core.recovery"),
            "core.recovery.reclaimed": counts["core.recovery.reclaimed"],
            "daemon.self_s": layer_s["daemon"],
            "daemon.share": share("daemon"),
            "daemon.inclusive_s": sum(durations("daemon")),
            "daemon.checks": counts["daemon.checks"],
            "core.checkpoint.self_s": layer_s["core.checkpoint"],
            "core.checkpoint.share": share("core.checkpoint"),
            "core.checkpoint.recoveries":
                counts["core.checkpoint.recoveries"],
            "trace.provenance_s": layer_s["trace"],
            "trace.provenance_calls": fired["capture_provenance"],
            "telemetry.scrape_s": layer_s["telemetry"],
            "telemetry.scrapes": fired["TelemetryHub.scrape_tick"],
            "telemetry.dropped": self.own["dropped"],
            "microbench.runs": fired["run_microbenchmark"],
            "microbench.run_ms_p50": percentile(microbench_ms, 0.5),
            "microbench.run_ms_p99": percentile(microbench_ms, 0.99),
            "chaos.schedule_ms_p50": percentile(schedule_ms, 0.5),
            "chaos.schedule_ms_p99": percentile(schedule_ms, 0.99),
            "service.sim_deadlocks": self.own["deadlocked"],
            "service.sim_num_gc": self.own["num_gc"],
            "fleet.route_s": sum(durations("fleet", "route")),
            "fleet.aggregate_s": sum(durations("fleet", "aggregate")),
            "fleet.step_s_max_shard": max(shard_s.values(), default=0.0),
            "fleet.shard_imbalance": ratio(
                max(shard_s.values(), default=0.0),
                sum(shard_s.values()) / len(shard_s) if shard_s else 0.0),
            "bench.unattributed_s": unattributed,
            "bench.span_coverage": ratio(sum(layer_s.values()), span_s),
        }
