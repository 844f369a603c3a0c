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

A hub reaches a runtime only through an explicit argument
(``Runtime.enable_telemetry(hub)``, the ``telemetry=`` parameter of
``run_chaos_campaign`` / ``run_production`` / ..., ``hub.attach(rt)``).  One hub may be attached to several
runtimes in sequence (redeployments in the long-run service,
per-schedule runtimes in a chaos campaign): metrics aggregate across
all of them, which is exactly what a fleet-level scrape would see.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime import events as ev
from repro.telemetry import recorder as rec
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiles import (
    FingerprintStore,
    GoroutineProfileSampler,
    normalize_site,
)

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
        #: Virtual-time TSDB, off until :meth:`enable_tsdb` — the no-TSDB
        #: hub costs nothing extra.
        self.tsdb = None
        self.scrape_interval_ms: Optional[float] = None
        self._build_instruments()

    def _build_instruments(self) -> None:
        # Only series something in the repository reads: the `repro obs`
        # report or a tier-1 test
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
        self.clock_ns = reg.gauge(
            "repro_clock_ns", "Virtual clock at the last snapshot",
            unit="ns")

    # -- attachment ----------------------------------------------------------

    def attach(self, rt) -> "TelemetryHub":
        """Wire this hub into a runtime (idempotent per runtime)."""
        rt.sched.telemetry = self
        self.clock = rt.clock
        self.recorder.clock = rt.clock
        return self

    # -- time series -------------------------------------------------------

    def enable_tsdb(self, scrape_interval_ms: float = 5.0):
        """Attach a virtual-time TSDB to this hub.

        Scraping itself is driven by a
        :class:`~repro.telemetry.tsdb.MetricsScraper` daemon on each
        runtime (``Runtime.enable_telemetry(scrape_interval_ms=...)``
        or ``Runtime.start_metrics_scrape``); ``scrape_interval_ms``
        here records the cadence those scrapers default to.
        """
        from repro.telemetry.tsdb import TimeSeriesDB

        if scrape_interval_ms <= 0:
            raise ValueError("scrape_interval_ms must be positive")
        self.tsdb = TimeSeriesDB()
        self.scrape_interval_ms = float(scrape_interval_ms)
        return self.tsdb

    def scrape_tick(self, now_ns: int) -> None:
        """One scrape: set the clock gauge, ingest every series into the
        TSDB."""
        if self.tsdb is None:
            return
        self.clock_ns.set(now_ns)
        self.tsdb.scrape(self.registry, now_ns)

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
        self.recorder.record(
            "gc", ev.GC_CYCLE, 0,
            f"#{cs.cycle} {cs.mode}({cs.reason}) "
            f"iters={cs.mark_iterations} work={cs.mark_work_units} "
            f"swept={cs.swept_bytes}B pause={cs.pause_ns}ns "
            f"deadlocks={cs.deadlocks_detected}")

    def on_leak_report(self, report) -> None:
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
        """Daemon lifecycle transition (``ev.DAEMON_START`` /
        ``ev.DAEMON_STOP``)."""
        self.recorder.record("daemon", kind)

    def on_daemon_detect(self, leaks: int) -> None:
        """A daemon tick surfaced ``leaks`` new leaks between GC cycles."""
        self.recorder.record(
            "daemon", ev.DAEMON_DETECT, 0,
            f"{leaks} new leak(s) surfaced by timer check",
            severity=rec.WARN)

    def on_checkpoint(self, subsystem: str) -> None:
        self.recorder.record("recovery", "checkpoint", 0, subsystem,
                             severity=rec.DEBUG)

    def on_recovery(self, record) -> None:
        self.recorder.record(
            "recovery", ev.RECOVERY_RESTART, 0,
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
            "watchdog", ev.WATCHDOG_STALL, 0,
            f"{len(report.goids)} user goroutine(s) wedged: "
            f"{list(report.goids)}", severity=rec.ERROR)
        self.recorder.incident("watchdog-stall", report.dump)

    def on_fault_injected(self, kind: str, goid: int, detail: str) -> None:
        self.recorder.record("chaos", kind, goid, detail,
                             severity=rec.WARN)

    # -- outputs -------------------------------------------------------------

    def snapshot(self) -> dict:
        """One JSON-serializable artifact covering every surface."""
        if self.clock is not None:
            self.clock_ns.set(self.clock.now)
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
        """Text exposition of the registry, clock synced first."""
        if self.clock is not None:
            self.clock_ns.set(self.clock.now)
        return self.registry.render_prometheus()
