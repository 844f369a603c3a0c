"""A deterministic virtual-time time-series database over the registry.

The :class:`TimeSeriesDB` scrapes a :class:`~repro.telemetry.metrics.
MetricsRegistry` on a virtual-clock cadence and stores one bounded
ring-buffer :class:`Series` per (metric, label set).  Point timestamps
come from the runtime's virtual clock, so two runs of the same
``(program, procs, seed, scrape interval)`` produce byte-identical
series.

Scraping is driven by the :class:`MetricsScraper`, a scheduler ticker
exactly like the detection daemon: the run loop calls it on a
virtual-time period, it is not a goroutine, so enabling scraping never
perturbs user scheduling, RNG draws, GC stepping — or the detection
daemon's tick instants.  Observation stays provably passive — the
``scraper`` pair of :mod:`repro.equivalence` pins this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.daemon import SystemTicker
from repro.errors import ReproError

#: Default cap on buffered points per series (drop-oldest beyond it).
DEFAULT_MAX_POINTS = 512


class Series:
    """One counter/gauge series: bounded ring of (t, value)."""

    __slots__ = ("name", "kind", "labelnames", "labelvalues", "times",
                 "values", "max_points", "dropped")

    def __init__(self, name: str, kind: str,
                 labelnames: Tuple[str, ...], labelvalues: Tuple[str, ...],
                 max_points: int = DEFAULT_MAX_POINTS):
        self.name = name
        self.kind = kind
        self.labelnames = labelnames
        self.labelvalues = labelvalues
        self.times: List[int] = []
        self.values: List[float] = []
        self.max_points = max_points
        self.dropped = 0

    @property
    def labels(self) -> Dict[str, str]:
        return dict(zip(self.labelnames, self.labelvalues))

    def append(self, t_ns: int, value: float) -> None:
        self.times.append(t_ns)
        self.values.append(value)
        if len(self.times) > self.max_points:
            del self.times[0]
            del self.values[0]
            self.dropped += 1

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": self.labels,
            "points": [[t, v] for t, v in zip(self.times, self.values)],
            "dropped": self.dropped,
        }


class TimeSeriesDB:
    """Bounded in-memory TSDB fed by registry scrapes."""

    def __init__(self, max_points: int = DEFAULT_MAX_POINTS):
        if max_points < 1:
            raise ValueError("max_points must be at least 1")
        self.max_points = max_points
        #: (metric name, label values) -> Series.
        self._series: Dict[Tuple[str, Tuple[str, ...]], Series] = {}
        self.scrapes = 0
        self.last_scrape_ns: Optional[int] = None

    def __len__(self) -> int:
        return len(self._series)

    @property
    def dropped_points(self) -> int:
        return sum(s.dropped for s in self._series.values())

    # -- ingestion -----------------------------------------------------------

    def scrape(self, registry, now_ns: int) -> int:
        """Append one point per live series; returns points written."""
        points = 0
        for metric in registry:
            for values, child in metric.series():
                key = (metric.name, values)
                series = self._series.get(key)
                if series is None:
                    series = Series(metric.name, metric.kind,
                                    metric.labelnames, values,
                                    max_points=self.max_points)
                    self._series[key] = series
                series.append(now_ns, child.value)
                points += 1
        self.scrapes += 1
        self.last_scrape_ns = now_ns
        return points

    def clear(self) -> None:
        """Drop every buffered point: the reset a hub reused across
        runtimes needs, because each runtime's clock restarts at zero."""
        self._series.clear()
        self.scrapes = 0
        self.last_scrape_ns = None

    # -- queries -------------------------------------------------------------

    def series(self, name: Optional[str] = None) -> List[Series]:
        """All series (optionally of one metric), deterministic order."""
        keys = sorted(k for k in self._series
                      if name is None or k[0] == name)
        return [self._series[k] for k in keys]

    def get(self, name: str, **labels: str):
        """The single series matching name + exact label values."""
        for series in self.series(name):
            if all(series.labels.get(k) == str(v)
                   for k, v in labels.items()):
                return series
        return None

    def to_dict(self) -> dict:
        return {
            "max_points": self.max_points,
            "scrapes": self.scrapes,
            "last_scrape_ns": self.last_scrape_ns,
            "dropped_points": self.dropped_points,
            "series": [s.to_dict() for s in self.series()],
        }


class ScraperError(ReproError):
    """Invalid metrics-scraper lifecycle operation."""


class MetricsScraper(SystemTicker):
    """The scrape loop: a scheduler ticker driving the hub's TSDB.

    Each tick calls :meth:`TelemetryHub.scrape_tick`, which sets the
    clock gauge and appends one point per live series.
    """

    what = "metrics scraper"
    error = ScraperError

    def __init__(self, rt, hub, interval_ns: int):
        super().__init__(rt, interval_ns)
        if hub.tsdb is None:
            raise ScraperError(
                "hub has no TSDB; call TelemetryHub.enable_tsdb first")
        self.hub = hub
        self.scrapes = 0

    def _tick(self) -> None:
        self.hub.scrape_tick(self.rt.clock.now)
        self.scrapes += 1
