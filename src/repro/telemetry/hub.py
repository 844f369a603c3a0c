"""The :class:`TelemetryHub`: one object wiring every telemetry surface.

The hub owns the metrics registry, the flight recorder, the profile
sampler, and the fingerprint store, and exposes the narrow callback
surface the runtime calls into.  Cost discipline:

- when no hub is attached, every instrumentation site in the scheduler /
  collector / watchdog is a single ``x.telemetry is None`` check — the
  no-op fast path the ``telemetry`` equivalence pair pins;
- when attached, the hot-path callbacks (:meth:`on_context_switch`,
  :meth:`on_spawn`, :meth:`on_park`, :meth:`on_wake`, :meth:`on_finish`)
  update instrument children bound once — in ``_build_instruments``,
  the per-reason park counters on the first park for that reason:
  ``child.value += 1``, one ``observe`` for the histogram; no
  :class:`Metric` passthrough, no registry or ``_children`` lookup, no
  string formatting unless an event actually reaches the recorder.
  The children are the registry's own, so every rendering sees them.

One hub may be attached to several runtimes in sequence (redeployments
in the long-run service, per-schedule runtimes in a chaos campaign, the
CLI's ``--metrics`` plumbing): metrics aggregate across all of them,
which is exactly what a fleet-level scrape would see.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional

from repro.runtime import api as runtime_api
from repro.runtime import events as ev
from repro.telemetry import recorder as rec
from repro.telemetry.metrics import (
    DURATION_BUCKETS_NS,
    MetricsRegistry,
    SIZE_BUCKETS,
)
from repro.telemetry.profiles import (
    FingerprintStore,
    GoroutineProfileSampler,
    normalize_site,
)

_default_hub: Optional["TelemetryHub"] = None


def set_default_hub(hub: Optional["TelemetryHub"]) -> None:
    """Install a process-wide hub that new runtimes auto-attach to.

    The CLI's ``--metrics``/``--trace`` plumbing uses this so every
    runtime an experiment builds internally reports into one place.
    """
    global _default_hub
    _default_hub = hub
    runtime_api.on_new_runtime = hub.attach if hub is not None else None


def get_default_hub() -> Optional["TelemetryHub"]:
    return _default_hub


class ServiceInstruments:
    """Pre-bound per-service instrument children (request-path hot set)."""

    __slots__ = ("name", "latency", "_outcomes", "_requests_metric",
                 "retries", "timeouts", "breaker_state", "breaker_opens",
                 "breaker_rejected")

    def __init__(self, hub: "TelemetryHub", name: str):
        self.name = name
        self.latency = hub.service_latency.labels(name)
        self._requests_metric = hub.service_requests
        self._outcomes: Dict[str, object] = {}
        self.retries = hub.service_retries.labels(name)
        self.timeouts = hub.service_timeouts.labels(name)
        self.breaker_state = hub.service_breaker_state.labels(name)
        self.breaker_opens = hub.service_breaker_opens.labels(name)
        self.breaker_rejected = hub.service_breaker_rejected.labels(name)

    def observe_request(self, latency_ns: int, outcome: str = "ok") -> None:
        self.latency.observe(latency_ns)
        child = self._outcomes.get(outcome)
        if child is None:
            child = self._requests_metric.labels(self.name, outcome)
            self._outcomes[outcome] = child
        child.inc()

    def set_breaker(self, state: str) -> None:
        """Encode breaker state as a gauge: closed=0, half-open=1, open=2."""
        self.breaker_state.set(
            {"closed": 0, "half-open": 1, "open": 2}.get(state, -1))


class TelemetryHub:
    """Aggregates metrics, events, profiles, and fingerprints.

    Args:
        recorder_capacity: flight-recorder ring size.
        min_severity: record-time severity floor (``rec.DEBUG`` keeps
            per-park/wake scheduler events; the default ``rec.INFO``
            keeps the ring for cycle/incident-grade events).
        categories: record-time category allowlist (None = all).
    """

    def __init__(self, recorder_capacity: int = 8192,
                 min_severity: int = rec.INFO,
                 categories=None):
        self.registry = MetricsRegistry()
        self.recorder = rec.FlightRecorder(
            capacity=recorder_capacity, min_severity=min_severity,
            categories=categories)
        self.fingerprints = FingerprintStore()
        self.sampler = GoroutineProfileSampler()
        self.clock = None
        self.runtimes_attached = 0
        #: Weak refs to attached runtimes, for drop-count scraping (weak:
        #: a hub outliving its runtimes must not keep them resident).
        self._runtimes: List[weakref.ref] = []
        #: Virtual-time TSDB + alert engine, off until
        #: :meth:`enable_tsdb` — the no-TSDB hub costs nothing extra.
        self.tsdb = None
        self.alerts = None
        self.scrape_interval_ms: Optional[float] = None
        self._build_instruments()

    def _build_instruments(self) -> None:
        reg = self.registry
        # Scheduler.
        self.ctx_switches = reg.counter(
            "repro_sched_context_switches_total",
            "Instructions dispatched onto a virtual processor")
        self.runq_depth = reg.gauge(
            "repro_sched_runq_depth",
            "Runnable-queue depth at the last dispatch")
        self.runq_depth_hist = reg.histogram(
            "repro_sched_runq_depth_sample",
            "Runnable-queue depth sampled at every dispatch",
            buckets=SIZE_BUCKETS)
        self.spawned = reg.counter(
            "repro_sched_goroutines_spawned_total",
            "Goroutines created (go statements)")
        self.finished = reg.counter(
            "repro_sched_goroutines_finished_total",
            "Goroutines that reached the end of their body")
        self.parks = reg.counter(
            "repro_sched_park_total",
            "Goroutine parks by wait reason", labelnames=("reason",))
        self.wakes = reg.counter(
            "repro_sched_wake_total", "Goroutine wakeups")
        self.goroutine_panics = reg.counter(
            "repro_sched_goroutine_panics_total",
            "Goroutine-scoped panics (chaos injections and recovered "
            "faults)")
        self.crashes = reg.counter(
            "repro_sched_crashes_total",
            "Program-fatal panics observed by the scheduler")
        self._park_children: Dict[str, object] = {}
        # The label-less children the hot callbacks update directly.
        self._ctx_switches = self.ctx_switches.labels()
        self._runq_depth = self.runq_depth.labels()
        self._runq_depth_hist = self.runq_depth_hist.labels()
        self._spawned = self.spawned.labels()
        self._finished = self.finished.labels()
        self._wakes = self.wakes.labels()
        # GC / heap.
        self.gc_cycles = reg.counter(
            "repro_gc_cycles_total", "Collection cycles by mode and reason",
            labelnames=("mode", "reason"))
        self.gc_pause = reg.histogram(
            "repro_gc_pause_ns", "Stop-the-world pause per cycle",
            unit="ns", buckets=DURATION_BUCKETS_NS)
        self.gc_pause_window = reg.histogram(
            "repro_gc_pause_window_ns",
            "Individual stop-the-world window, by phase "
            "(setup vs termination)", labelnames=("window",),
            unit="ns", buckets=DURATION_BUCKETS_NS)
        self.gc_phase_transitions = reg.counter(
            "repro_gc_phase_transitions_total",
            "Incremental-collector phase entries, by phase",
            labelnames=("phase",))
        self.gc_barrier_shades = reg.counter(
            "repro_gc_barrier_shades_total",
            "Objects shaded gray by the write barrier")
        self.gc_mark_steps = reg.counter(
            "repro_gc_mark_steps_total",
            "Bounded concurrent marking steps")
        self.gc_sweep_steps = reg.counter(
            "repro_gc_sweep_steps_total",
            "Bounded concurrent sweeping steps")
        self.gc_root_reexpansions = reg.counter(
            "repro_gc_root_reexpansions_total",
            "Masked candidates re-admitted to the root set by a "
            "mid-cycle wake")
        self.gc_mark_clock = reg.histogram(
            "repro_gc_mark_clock_ns", "Marking-phase cost per cycle",
            unit="ns", buckets=DURATION_BUCKETS_NS)
        self.gc_mark_work = reg.counter(
            "repro_gc_mark_work_total", "Mark work units (edges traversed)")
        self.gc_swept_bytes = reg.counter(
            "repro_gc_swept_bytes_total", "Bytes reclaimed by the sweeper",
            unit="bytes")
        self.heap_live_bytes = reg.gauge(
            "repro_heap_live_bytes", "Live heap bytes after the last cycle",
            unit="bytes")
        self.heap_live_objects = reg.gauge(
            "repro_heap_live_objects",
            "Live heap objects after the last cycle")
        self.reachable_dead_bytes = reg.gauge(
            "repro_gc_reachable_dead_bytes",
            "Bytes kept reachable only by deadlocked goroutines "
            "(the liveness precision gap)", unit="bytes")
        self.reachable_dead_bytes_total = reg.counter(
            "repro_gc_reachable_dead_bytes_total",
            "Cumulative reachable-but-dead bytes across cycles",
            unit="bytes")
        self.sema_waiters = reg.gauge(
            "repro_sema_waiters",
            "Goroutines parked in the semaphore table")
        self.live_goroutines = reg.gauge(
            "repro_sched_live_goroutines", "Live goroutines (non-dead)")
        self.blocked_goroutines = reg.gauge(
            "repro_sched_blocked_goroutines",
            "Goroutines blocked or kept-deadlocked")
        # Detector.
        self.leaks_found = reg.counter(
            "repro_detector_leaks_total",
            "Partial deadlocks reported, by defect site",
            labelnames=("site",))
        self.leaks_kept = reg.counter(
            "repro_detector_leaks_kept_total",
            "Reported goroutines kept alive (finalizers / no recovery)",
            labelnames=("site",))
        self.leaks_reclaimed = reg.counter(
            "repro_detector_leaks_reclaimed_total",
            "Reported goroutines forcibly reclaimed, by defect site",
            labelnames=("site",))
        self.liveness_checks = reg.counter(
            "repro_detector_liveness_checks_total",
            "Liveness checks performed by the detection fixpoint")
        # Detection daemon / checkpoint recovery.
        self.daemon_checks = reg.counter(
            "repro_daemon_checks_total",
            "Detection-daemon fixpoint runs that executed")
        self.daemon_skips = reg.counter(
            "repro_daemon_skips_total",
            "Daemon checks skipped (collector mid-cycle or GOLF off)")
        self.daemon_leaks = reg.counter(
            "repro_daemon_leaks_total",
            "Leaks first surfaced by a daemon check (not a GC cycle)")
        self.daemon_events = reg.counter(
            "repro_daemon_events_total",
            "Daemon lifecycle transitions, by kind", labelnames=("kind",))
        self.checkpoints_taken = reg.counter(
            "repro_checkpoints_taken_total",
            "Subsystem checkpoints captured, by subsystem",
            labelnames=("subsystem",))
        self.recoveries = reg.counter(
            "repro_recoveries_total",
            "Checkpoint/restart recoveries, by subsystem and trigger",
            labelnames=("subsystem", "trigger"))
        self.recovery_time = reg.histogram(
            "repro_recovery_time_ns",
            "Virtual time charged per subsystem rollback+restart",
            unit="ns", buckets=DURATION_BUCKETS_NS)
        # Watchdog / chaos.
        self.stalls = reg.counter(
            "repro_watchdog_stalls_total", "Global stalls detected")
        self.faults_injected = reg.counter(
            "repro_chaos_faults_injected_total",
            "Chaos faults that fired, by kind", labelnames=("kind",))
        # Services.
        self.service_requests = reg.counter(
            "repro_service_requests_total",
            "Requests completed, by service and outcome",
            labelnames=("service", "outcome"))
        self.service_latency = reg.histogram(
            "repro_service_request_latency_ns",
            "End-to-end request latency", labelnames=("service",),
            unit="ns", buckets=DURATION_BUCKETS_NS)
        self.service_retries = reg.counter(
            "repro_service_retries_total", "Downstream retries",
            labelnames=("service",))
        self.service_timeouts = reg.counter(
            "repro_service_timeouts_total", "Downstream deadline hits",
            labelnames=("service",))
        self.service_breaker_state = reg.gauge(
            "repro_service_breaker_state",
            "Circuit-breaker state (0=closed, 1=half-open, 2=open)",
            labelnames=("service",))
        self.service_breaker_opens = reg.counter(
            "repro_service_breaker_opens_total", "Circuit-breaker opens",
            labelnames=("service",))
        self.service_breaker_rejected = reg.counter(
            "repro_service_breaker_rejected_total",
            "Calls rejected by an open breaker", labelnames=("service",))
        # Static analyzer (`repro vet`).
        self.vet_runs = reg.counter(
            "repro_vet_runs_total",
            "Static analyzer (`repro vet`) invocations")
        self.vet_functions = reg.counter(
            "repro_vet_functions_total",
            "Root functions analyzed by `repro vet`, by verdict",
            labelnames=("verdict",))
        self.vet_diagnostics = reg.counter(
            "repro_vet_diagnostics_total",
            "Diagnostics emitted by `repro vet`, by rule and severity",
            labelnames=("rule", "severity"))
        self.clock_ns = reg.gauge(
            "repro_clock_ns", "Virtual clock at the last snapshot",
            unit="ns")
        # Event-loss visibility: ring-buffer evictions in the flight
        # recorder and in any execution tracer of an attached runtime.
        self.recorder_dropped = reg.gauge(
            "repro_recorder_dropped_total",
            "Flight-recorder events evicted by the drop-oldest ring")
        self.trace_dropped = reg.gauge(
            "repro_trace_dropped_total",
            "Execution-tracer events evicted by the drop-oldest ring, "
            "summed over attached runtimes")

    # -- attachment ----------------------------------------------------------

    def attach(self, rt) -> "TelemetryHub":
        """Wire this hub into a runtime (idempotent per runtime)."""
        if rt.sched.telemetry is not self:
            rt.sched.telemetry = self
            self.runtimes_attached += 1
            self._runtimes.append(weakref.ref(rt))
        self.clock = rt.clock
        self.recorder.clock = rt.clock
        return self

    def service(self, name: str) -> ServiceInstruments:
        return ServiceInstruments(self, name)

    # -- time-series + alerting ----------------------------------------------

    def enable_tsdb(self, scrape_interval_ms: float = 5.0, rules=None,
                    max_points: int = 512):
        """Attach a virtual-time TSDB and alert engine to this hub.

        ``rules`` defaults to :func:`~repro.telemetry.alerts.
        builtin_slo_rules`; pass an explicit list (possibly empty) to
        override.  Scraping itself is driven by a
        :class:`~repro.telemetry.tsdb.MetricsScraper` daemon on each
        runtime (``Runtime.enable_telemetry(scrape_interval_ms=...)``
        or ``Runtime.start_metrics_scrape``); ``scrape_interval_ms``
        here records the cadence those scrapers default to.
        """
        from repro.telemetry.alerts import AlertEngine, builtin_slo_rules
        from repro.telemetry.tsdb import TimeSeriesDB

        if scrape_interval_ms <= 0:
            raise ValueError("scrape_interval_ms must be positive")
        self.tsdb = TimeSeriesDB(max_points=max_points)
        self.alerts = AlertEngine(
            builtin_slo_rules() if rules is None else rules)
        self.scrape_interval_ms = float(scrape_interval_ms)
        return self.tsdb

    def scrape_tick(self, now_ns: int) -> None:
        """One scrape: refresh derived gauges, ingest every series into
        the TSDB, evaluate the alert rules at the scrape timestamp."""
        if self.tsdb is None:
            return
        self.clock_ns.set(now_ns)
        self._sync_drop_counts()
        self.tsdb.scrape(self.registry, now_ns)
        if self.alerts is not None:
            self.alerts.evaluate(self.tsdb, now_ns)

    # -- scheduler callbacks (hot) -------------------------------------------

    def on_context_switch(self, runq_depth: int) -> None:
        self._ctx_switches.value += 1
        self._runq_depth.value = runq_depth
        self._runq_depth_hist.observe(runq_depth)

    def on_spawn(self, g) -> None:
        self._spawned.value += 1

    def on_park(self, g, reason) -> None:
        key = reason.value
        child = self._park_children.get(key)
        if child is None:
            child = self.parks.labels(key)
            self._park_children[key] = child
        child.value += 1
        self.recorder.record("sched", ev.GO_PARK, g.goid, key,
                             severity=rec.DEBUG)

    def on_wake(self, g) -> None:
        self._wakes.value += 1
        self.recorder.record("sched", ev.GO_WAKE, g.goid,
                             severity=rec.DEBUG)

    def on_finish(self, g) -> None:
        self._finished.value += 1

    # -- scheduler callbacks (cold) ------------------------------------------

    def on_goroutine_panic(self, goid: int, message: str) -> None:
        self.goroutine_panics.inc()
        self.recorder.record("sched", ev.GO_PANIC, goid, message,
                             severity=rec.ERROR)
        self.recorder.incident("goroutine-panic", f"g{goid}: {message}")

    def on_crash(self, goid: int, message: str) -> None:
        self.crashes.inc()
        self.recorder.record("sched", "crash", goid, message,
                             severity=rec.ERROR)
        self.recorder.incident("fatal-panic", f"g{goid}: {message}")

    # -- collector / detector callbacks --------------------------------------

    def on_gc_phase(self, phase: str, cycle: int) -> None:
        """Incremental collector entered ``phase`` (cold: a few per cycle)."""
        self.gc_phase_transitions.labels(phase).inc()
        self.recorder.record("gc", ev.GC_PHASE, 0, f"#{cycle} {phase}",
                             severity=rec.DEBUG)

    def on_gc_cycle(self, cs, sched, heap) -> None:
        self.gc_cycles.labels(cs.mode, cs.reason).inc()
        self.gc_pause.observe(cs.pause_ns)
        self.gc_pause_window.labels("setup").observe(cs.pause_setup_ns)
        self.gc_pause_window.labels("termination").observe(
            cs.pause_termination_ns)
        self.gc_mark_clock.observe(cs.mark_clock_ns)
        self.gc_mark_work.inc(cs.mark_work_units)
        self.gc_swept_bytes.inc(cs.swept_bytes)
        if cs.barrier_shades:
            self.gc_barrier_shades.inc(cs.barrier_shades)
        if cs.mark_steps:
            self.gc_mark_steps.inc(cs.mark_steps)
        if cs.sweep_steps:
            self.gc_sweep_steps.inc(cs.sweep_steps)
        if cs.root_reexpansions:
            self.gc_root_reexpansions.inc(cs.root_reexpansions)
        self.liveness_checks.inc(cs.liveness_checks)
        self.reachable_dead_bytes.set(cs.reachable_dead_bytes)
        self.reachable_dead_bytes_total.inc(cs.reachable_dead_bytes)
        # Per-cycle gauges — the GC is the natural sampling cadence the
        # paper's deployments report on.
        self.heap_live_bytes.set(heap.live_bytes)
        self.heap_live_objects.set(heap.live_objects)
        self.sema_waiters.set(len(sched.semtable))
        self.live_goroutines.set(len(sched.live_goroutines()))
        self.blocked_goroutines.set(len(sched.blocked_goroutines()))
        self.recorder.record(
            "gc", ev.GC_CYCLE, 0,
            f"#{cs.cycle} {cs.mode}({cs.reason}) "
            f"iters={cs.mark_iterations} work={cs.mark_work_units} "
            f"swept={cs.swept_bytes}B pause={cs.pause_ns}ns "
            f"deadlocks={cs.deadlocks_detected}")

    def _site_label(self, report) -> str:
        label = getattr(report, "label", "")
        if label:
            return label
        return (f"{normalize_site(report.go_site)} -> "
                f"{normalize_site(report.block_site)}")

    def on_leak_report(self, report, kept: bool) -> None:
        site = self._site_label(report)
        self.leaks_found.labels(site).inc()
        if kept:
            self.leaks_kept.labels(site).inc()
        record, _ = self.fingerprints.observe(report)
        self.recorder.record(
            "detector", ev.DEADLOCK, report.goid,
            f"[{report.wait_reason}] at {normalize_site(report.block_site)}",
            severity=rec.WARN)
        self.recorder.incident(
            "leak-report",
            f"goroutine {report.glabel} [{report.wait_reason}] "
            f"spawned {normalize_site(report.go_site)} "
            f"blocked {normalize_site(report.block_site)} "
            f"fingerprint {record.fingerprint}")

    def on_reclaim(self, g) -> None:
        site = g.deadlock_label or (
            f"{normalize_site(g.go_site)} -> "
            f"{normalize_site(g.block_site())}")
        self.leaks_reclaimed.labels(site).inc()
        self.recorder.record("detector", ev.GO_RECLAIM, g.goid, site)

    # -- daemon / recovery callbacks -----------------------------------------

    def on_daemon_event(self, kind: str) -> None:
        """Daemon lifecycle transition (``start`` / ``stop``)."""
        self.daemon_events.labels(kind).inc()
        self.recorder.record("daemon", f"daemon-{kind}", 0, kind)

    def on_daemon_check(self, skipped: bool, leaks: int) -> None:
        if skipped:
            self.daemon_skips.inc()
            return
        self.daemon_checks.inc()
        if leaks:
            self.daemon_leaks.inc(leaks)
            self.recorder.record(
                "daemon", "daemon-detect", 0,
                f"{leaks} new leak(s) surfaced by timer check",
                severity=rec.WARN)

    def on_checkpoint(self, subsystem: str) -> None:
        self.checkpoints_taken.labels(subsystem).inc()
        self.recorder.record("recovery", "checkpoint", 0, subsystem,
                             severity=rec.DEBUG)

    def on_recovery(self, record) -> None:
        self.recoveries.labels(record.subsystem, record.trigger).inc()
        self.recovery_time.observe(record.recovery_ns)
        self.recorder.record(
            "recovery", "recovery-restart", 0,
            f"{record.subsystem}: {record.workers_killed} killed, "
            f"{record.workers_respawned} respawned in "
            f"{record.recovery_ns}ns (trigger={record.trigger})",
            severity=rec.WARN)
        self.recorder.incident(
            "subsystem-recovery",
            f"{record.subsystem} rolled back to checkpoint "
            f"({record.checkpoint_age_ns}ns old) after condemned goroutines "
            f"{list(record.condemned_goids)}; trigger={record.trigger}")

    # -- watchdog / chaos callbacks ------------------------------------------

    def on_stall(self, report) -> None:
        self.stalls.inc()
        self.recorder.record(
            "watchdog", "stall", 0,
            f"{len(report.goids)} user goroutine(s) wedged: "
            f"{list(report.goids)}", severity=rec.ERROR)
        self.recorder.incident("watchdog-stall", report.dump)

    def on_fault_injected(self, kind: str, goid: int, detail: str) -> None:
        self.faults_injected.labels(kind).inc()
        self.recorder.record("chaos", kind, goid, detail,
                             severity=rec.WARN)

    # -- static analyzer callbacks -------------------------------------------

    def on_vet_run(self, vet) -> None:
        """Record one `repro vet` run (a VetReport; no runtime attached)."""
        self.vet_runs.inc()
        for report in vet.reports:
            self.vet_functions.labels(report.verdict).inc()
            for diag in report.diagnostics:
                if diag.suppressed:
                    continue
                self.vet_diagnostics.labels(diag.rule, diag.severity).inc()
        counts = vet.counts()
        self.recorder.record(
            "vet", "run", 0,
            f"{counts['functions']} function(s): {counts['leaky']} leaky, "
            f"{counts['suspect']} suspect, {counts['unknown']} unknown, "
            f"{counts['clean']} clean")

    # -- outputs -------------------------------------------------------------

    def _sync_drop_counts(self) -> None:
        """Refresh the event-loss gauges from their ring buffers."""
        self.recorder_dropped.set(self.recorder.dropped)
        trace_dropped = 0
        live: List[weakref.ref] = []
        for ref in self._runtimes:
            rt = ref()
            if rt is None:
                continue
            live.append(ref)
            tracer = rt.sched.tracer
            if tracer is not None:
                trace_dropped += tracer.dropped
        self._runtimes = live
        self.trace_dropped.set(trace_dropped)

    def snapshot(self) -> dict:
        """One JSON-serializable artifact covering every surface."""
        if self.clock is not None:
            self.clock_ns.set(self.clock.now)
        self._sync_drop_counts()
        return {
            "metrics": self.registry.snapshot(),
            "recorder": {
                "buffered": len(self.recorder),
                "dropped": self.recorder.dropped,
                "incidents": len(self.recorder.incidents),
            },
            "fingerprints": self.fingerprints.as_dict(),
            "profile_samples": self.sampler.history(),
        }

    def render_prometheus(self) -> str:
        """Text exposition of the registry, clock and drop counts
        synced first."""
        if self.clock is not None:
            self.clock_ns.set(self.clock.now)
        self._sync_drop_counts()
        return self.registry.render_prometheus()
