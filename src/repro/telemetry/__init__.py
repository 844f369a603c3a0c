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

from repro.telemetry.export import (
    validate_exposition,
    write_artifacts,
)
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.metrics import (
    COUNTER,
    GAUGE,
    Metric,
    MetricsRegistry,
    render_merged_prometheus,
)
from repro.telemetry.tsdb import (
    MetricsScraper,
    ScraperError,
    Series,
    TimeSeriesDB,
)
from repro.telemetry.profiles import (
    FingerprintStore,
    GoroutineProfileSampler,
    HeapSiteRecord,
    MergeStats,
    format_heap_profile,
    heap_profile,
    leak_fingerprint,
)
from repro.telemetry.recorder import (
    FlightRecorder,
    INFO,
    Incident,
    RecorderEvent,
    RingBuffer,
    WARN,
)

__all__ = [
    "COUNTER",
    "FingerprintStore",
    "FlightRecorder",
    "GAUGE",
    "GoroutineProfileSampler",
    "HeapSiteRecord",
    "INFO",
    "Incident",
    "MergeStats",
    "Metric",
    "MetricsRegistry",
    "MetricsScraper",
    "render_merged_prometheus",
    "RecorderEvent",
    "RingBuffer",
    "ScraperError",
    "Series",
    "TelemetryHub",
    "TimeSeriesDB",
    "WARN",
    "format_heap_profile",
    "heap_profile",
    "leak_fingerprint",
    "validate_exposition",
    "write_artifacts",
]
