"""repro.telemetry — production-grade observability for the runtime.

Five surfaces behind one :class:`TelemetryHub`:

- **metrics** (:mod:`repro.telemetry.metrics`): Prometheus-model
  counters and gauges over the scheduler and GC;
- **flight recorder** (:mod:`repro.telemetry.recorder`): a bounded ring
  of structured events with dump-on-incident;
- **profiles** (:mod:`repro.telemetry.profiles`): goroutine and heap
  profiles plus cross-run leak fingerprinting;
- **exporters** (:mod:`repro.telemetry.export`): ``.prom`` textfiles
  and JSON artifacts (``repro run`` writes them);
- **TSDB** (:mod:`repro.telemetry.tsdb`): a virtual-time time-series
  store scraped by a scheduler ticker.

Everything is timestamped from the virtual clock, so two runs of the
same ``(program, procs, seed)`` produce byte-identical artifacts.
"""

from repro import lazy_exports

_EXPORTS = {
    "COUNTER": "metrics",
    "FingerprintStore": "profiles",
    "FlightRecorder": "recorder",
    "GAUGE": "metrics",
    "GoroutineProfileSampler": "profiles",
    "HeapSiteRecord": "profiles",
    "INFO": "recorder",
    "Incident": "recorder",
    "MergeStats": "profiles",
    "Metric": "metrics",
    "MetricsRegistry": "metrics",
    "MetricsScraper": "tsdb",
    "render_merged_prometheus": "metrics",
    "RecorderEvent": "recorder",
    "RingBuffer": "recorder",
    "ScraperError": "tsdb",
    "Series": "tsdb",
    "TelemetryHub": "hub",
    "TimeSeriesDB": "tsdb",
    "WARN": "recorder",
    "format_heap_profile": "profiles",
    "heap_profile": "profiles",
    "leak_fingerprint": "profiles",
    "validate_exposition": "export",
    "write_artifacts": "export",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
