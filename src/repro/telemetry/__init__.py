"""repro.telemetry — production-grade observability for the runtime.

Four surfaces behind one :class:`TelemetryHub`:

- **metrics** (:mod:`repro.telemetry.metrics`): Prometheus-model
  counters/gauges/histograms over the scheduler, GC, detector, daemon
  and recovery;
- **flight recorder** (:mod:`repro.telemetry.recorder`): a bounded ring
  of structured events with dump-on-incident;
- **profiles** (:mod:`repro.telemetry.profiles`): goroutine and heap
  profiles plus cross-run leak fingerprinting;
- **exporters** (:mod:`repro.telemetry.export`): ``.prom`` textfiles,
  JSON artifacts, and the ``repro obs`` report;
- **TSDB + alerting** (:mod:`repro.telemetry.tsdb`,
  :mod:`repro.telemetry.alerts`): a virtual-time time-series store
  scraped by a scheduler ticker, and Prometheus-style threshold and
  burn-rate SLO rules with a firing/pending/resolved state machine.

Everything is timestamped from the virtual clock, so two runs of the
same ``(program, procs, seed)`` produce byte-identical artifacts.
"""

from repro.telemetry.alerts import (
    AlertEngine,
    BurnRateRule,
    RECOVERY_TIME_SLO_NS,
    ThresholdRule,
    builtin_slo_rules,
)
from repro.telemetry.export import (
    ObsResult,
    run_observed_benchmark,
    validate_exposition,
    write_artifacts,
)
from repro.telemetry.hub import (
    TelemetryHub,
    get_default_hub,
    set_default_hub,
)
from repro.telemetry.metrics import (
    COUNTER,
    DURATION_BUCKETS_NS,
    GAUGE,
    HISTOGRAM,
    Metric,
    MetricsRegistry,
    cumulative_at,
    quantile_from_buckets,
    render_merged_prometheus,
)
from repro.telemetry.tsdb import (
    HistogramSeries,
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
    normalize_site,
)
from repro.telemetry.recorder import (
    DEBUG,
    ERROR,
    FlightRecorder,
    INFO,
    Incident,
    RecorderEvent,
    RingBuffer,
    WARN,
)

__all__ = [
    "AlertEngine",
    "BurnRateRule",
    "COUNTER",
    "DEBUG",
    "DURATION_BUCKETS_NS",
    "ERROR",
    "FingerprintStore",
    "FlightRecorder",
    "GAUGE",
    "GoroutineProfileSampler",
    "HISTOGRAM",
    "HeapSiteRecord",
    "HistogramSeries",
    "INFO",
    "Incident",
    "MergeStats",
    "Metric",
    "MetricsRegistry",
    "MetricsScraper",
    "ObsResult",
    "RECOVERY_TIME_SLO_NS",
    "render_merged_prometheus",
    "RecorderEvent",
    "RingBuffer",
    "ScraperError",
    "Series",
    "TelemetryHub",
    "ThresholdRule",
    "TimeSeriesDB",
    "WARN",
    "builtin_slo_rules",
    "cumulative_at",
    "format_heap_profile",
    "get_default_hub",
    "heap_profile",
    "leak_fingerprint",
    "normalize_site",
    "quantile_from_buckets",
    "run_observed_benchmark",
    "set_default_hub",
    "validate_exposition",
    "write_artifacts",
]
