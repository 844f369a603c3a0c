"""The :class:`TelemetryHub`: one object wiring every telemetry surface.

The hub owns the metrics registry, the flight recorder, the profile
sampler, and the fingerprint store, and exposes the narrow callback
surface the runtime calls into.  Cost discipline:

- when no hub is attached, every instrumentation site in the scheduler /
  collector / watchdog is a single ``x.telemetry is None`` check — the
  no-op fast path the ``telemetry`` equivalence pair pins;
- when attached, the hot-path callbacks cost one statement each:
  :meth:`on_context_switch` bumps the counter child bound once in
  ``_build_instruments`` (``child.value += 1`` — no :class:`Metric`
  passthrough, no registry lookup; the child is the registry's own, so
  every rendering sees it), and :meth:`on_park` / :meth:`on_wake` hand
  the recorder a by-value event it drops below its severity floor
  without formatting a string.

One hub may be attached to several runtimes in sequence (redeployments
in the long-run service, per-schedule runtimes in a chaos campaign, the
CLI's ``--metrics`` plumbing): metrics aggregate across all of them,
which is exactly what a fleet-level scrape would see.
"""

from __future__ import annotations

import weakref
from typing import List, Optional

from repro.runtime import api as runtime_api
from repro.runtime import events as ev
from repro.telemetry import recorder as rec
from repro.telemetry.metrics import MetricsRegistry
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


class TelemetryHub:
    """Aggregates metrics, events, profiles, and fingerprints.

    Args:
        min_severity: record-time severity floor (``rec.DEBUG`` keeps
            per-park/wake scheduler events; the default ``rec.INFO``
            keeps the ring for cycle/incident-grade events).
    """

    def __init__(self, min_severity: int = rec.INFO):
        self.registry = MetricsRegistry()
        self.recorder = rec.FlightRecorder(min_severity=min_severity)
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
        # Only series something in the repository reads: an alert rule,
        # the `repro obs` report or a tier-1 test
        # (tests/test_layering.py::test_every_output_has_a_reader).
        reg = self.registry
        # Scheduler.
        self.ctx_switches = reg.counter(
            "repro_sched_context_switches_total",
            "Instructions dispatched onto a virtual processor")
        # The label-less child the hot callback updates directly.
        self._ctx_switches = self.ctx_switches.labels()
        # GC.
        self.gc_cycles = reg.counter(
            "repro_gc_cycles_total", "Collection cycles by mode and reason",
            labelnames=("mode", "reason"))
        self.gc_pause_window = reg.histogram(
            "repro_gc_pause_window_ns",
            "Individual stop-the-world window, by phase "
            "(setup vs termination)", labelnames=("window",), unit="ns")
        # Detector, daemon, recovery.
        self.leaks_found = reg.counter(
            "repro_detector_leaks_total",
            "Partial deadlocks reported, by defect site",
            labelnames=("site",))
        self.daemon_checks = reg.counter(
            "repro_daemon_checks_total",
            "Detection-daemon fixpoint runs that executed")
        self.recovery_time = reg.histogram(
            "repro_recovery_time_ns",
            "Virtual time charged per subsystem rollback+restart",
            unit="ns")
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

    # -- time-series + alerting ----------------------------------------------

    def enable_tsdb(self, scrape_interval_ms: float = 5.0, rules=None):
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
        self.tsdb = TimeSeriesDB()
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

    def on_context_switch(self) -> None:
        self._ctx_switches.value += 1

    def on_park(self, g, reason) -> None:
        self.recorder.record("sched", ev.GO_PARK, g.goid, reason.value,
                             severity=rec.DEBUG)

    def on_wake(self, g) -> None:
        self.recorder.record("sched", ev.GO_WAKE, g.goid,
                             severity=rec.DEBUG)

    # -- scheduler callbacks (cold) ------------------------------------------

    def on_goroutine_panic(self, goid: int, message: str) -> None:
        self.recorder.record("sched", ev.GO_PANIC, goid, message,
                             severity=rec.ERROR)
        self.recorder.incident("goroutine-panic", f"g{goid}: {message}")

    def on_crash(self, goid: int, message: str) -> None:
        self.recorder.record("sched", "crash", goid, message,
                             severity=rec.ERROR)
        self.recorder.incident("fatal-panic", f"g{goid}: {message}")

    # -- collector / detector callbacks --------------------------------------

    def on_gc_phase(self, phase: str, cycle: int) -> None:
        """Incremental collector entered ``phase`` (cold: a few per cycle)."""
        self.recorder.record("gc", ev.GC_PHASE, 0, f"#{cycle} {phase}",
                             severity=rec.DEBUG)

    def on_gc_cycle(self, cs) -> None:
        self.gc_cycles.labels(cs.mode, cs.reason).inc()
        self.gc_pause_window.labels("setup").observe(cs.pause_setup_ns)
        self.gc_pause_window.labels("termination").observe(
            cs.pause_termination_ns)
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

    def on_leak_report(self, report) -> None:
        site = self._site_label(report)
        self.leaks_found.labels(site).inc()
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
        self.recorder.record("detector", ev.GO_RECLAIM, g.goid, site)

    # -- daemon / recovery callbacks -----------------------------------------

    def on_daemon_event(self, kind: str) -> None:
        """Daemon lifecycle transition (``start`` / ``stop``)."""
        self.recorder.record("daemon", f"daemon-{kind}", 0, kind)

    def on_daemon_check(self, skipped: bool, leaks: int) -> None:
        if skipped:
            return
        self.daemon_checks.inc()
        if leaks:
            self.recorder.record(
                "daemon", "daemon-detect", 0,
                f"{leaks} new leak(s) surfaced by timer check",
                severity=rec.WARN)

    def on_checkpoint(self, subsystem: str) -> None:
        self.recorder.record("recovery", "checkpoint", 0, subsystem,
                             severity=rec.DEBUG)

    def on_recovery(self, record) -> None:
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
        self.recorder.record(
            "watchdog", "stall", 0,
            f"{len(report.goids)} user goroutine(s) wedged: "
            f"{list(report.goids)}", severity=rec.ERROR)
        self.recorder.incident("watchdog-stall", report.dump)

    def on_fault_injected(self, kind: str, goid: int, detail: str) -> None:
        self.recorder.record("chaos", kind, goid, detail,
                             severity=rec.WARN)

    # -- static analyzer callbacks -------------------------------------------

    def on_vet_run(self, vet) -> None:
        """Record one `repro vet` run (a VetReport; no runtime attached)."""
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
