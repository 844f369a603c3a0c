"""The :class:`TelemetryHub`: one object wiring every telemetry surface.

The hub owns the metrics registry, the flight recorder, the profile
sampler, and the fingerprint store, and exposes the three callbacks the
runtime calls into: :meth:`on_context_switch`, :meth:`on_gc_cycle` and
:meth:`on_leak_report`.  Each one counts something; runtime transitions
(park, wake, panic, ...) are the execution tracer's to log, not the
hub's.  Cost discipline:

- when no hub is attached, every instrumentation site in the scheduler /
  collector is a single ``x.telemetry is None`` check — the no-op fast
  path the ``telemetry`` equivalence pair pins;
- when attached, :meth:`on_context_switch` — the one hot callback —
  bumps the counter child bound once in ``_build_instruments``
  (``child.value += 1`` — no :class:`Metric` passthrough, no registry
  lookup; the child is the registry's own, so every rendering sees it).

The flight recorder is the hub's own log: one line per GC cycle and
per leak report, and one incident per leak report.  It outlives any one
runtime, as the hub does.

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
from repro.telemetry.profiles import FingerprintStore, GoroutineProfileSampler


class TelemetryHub:
    """Aggregates metrics, events, profiles, and fingerprints."""

    def __init__(self):
        self.registry = MetricsRegistry()
        self.recorder = rec.FlightRecorder()
        self.fingerprints = FingerprintStore()
        self.sampler = GoroutineProfileSampler()
        self.clock = None
        #: Virtual-time TSDB, off until :meth:`enable_tsdb` — the no-TSDB
        #: hub costs nothing extra.
        self.tsdb = None
        self.scrape_interval_ms: Optional[float] = None
        self._build_instruments()

    def _build_instruments(self) -> None:
        # Only series something in the repository reads: the `repro run`
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

    # -- runtime callbacks ---------------------------------------------------

    def on_context_switch(self) -> None:
        self._ctx_switches.value += 1

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
            f"[{report.wait_reason}] at {report.block_site}",
            severity=rec.WARN)
        self.recorder.incident(
            "leak-report",
            f"goroutine {report.glabel} [{report.wait_reason}] "
            f"spawned {report.go_site} "
            f"blocked {report.block_site} "
            f"fingerprint {record.fingerprint}")

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
