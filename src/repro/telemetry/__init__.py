"""repro.telemetry — production-grade observability for the runtime.

Four surfaces behind one :class:`TelemetryHub`:

- **metrics** (:mod:`repro.telemetry.metrics`): Prometheus-model
  counters/gauges/histograms over the scheduler, GC, detector, semaphore
  table, and services;
- **flight recorder** (:mod:`repro.telemetry.recorder`): a bounded ring
  of structured events with dump-on-incident;
- **profiles** (:mod:`repro.telemetry.profiles`): goroutine and heap
  profiles plus cross-run leak fingerprinting;
- **exporters** (:mod:`repro.telemetry.export`): ``.prom`` textfiles,
  JSON artifacts, and the ``repro obs`` report;
- **TSDB + alerting** (:mod:`repro.telemetry.tsdb`,
  :mod:`repro.telemetry.alerts`, :mod:`repro.telemetry.dashboard`): a
  virtual-time time-series store scraped by a scheduler ticker,
  Prometheus-style threshold and burn-rate SLO rules
  with a firing/pending/resolved state machine, and the deterministic
  ``repro dash`` dashboard over a fleet-wide rollup.

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
from repro.telemetry.dashboard import (
    DASH_SCHEMA_VERSION,
    DashResult,
    run_dash,
    sparkline,
    validate_dash_artifact,
)
from repro.telemetry.export import (
    ObsResult,
    run_observed_benchmark,
    validate_exposition,
    write_artifacts,
)
from repro.telemetry.hub import (
    ServiceInstruments,
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
    SIZE_BUCKETS,
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
    merge_tsdb,
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
    "DASH_SCHEMA_VERSION",
    "DEBUG",
    "DURATION_BUCKETS_NS",
    "DashResult",
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
    "SIZE_BUCKETS",
    "ScraperError",
    "Series",
    "ServiceInstruments",
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
    "merge_tsdb",
    "normalize_site",
    "quantile_from_buckets",
    "run_dash",
    "run_observed_benchmark",
    "set_default_hub",
    "sparkline",
    "validate_dash_artifact",
    "validate_exposition",
    "write_artifacts",
]
