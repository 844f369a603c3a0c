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

Windowed query operators follow Prometheus semantics over the points
inside ``[now - window, now]``:

- ``latest``        — the newest point at or before ``now``;
- ``delta``         — last minus first point in the window;
- ``rate``          — ``delta`` per *virtual* second;
- ``avg_over_time`` — arithmetic mean of the points in the window;
- ``quantile``      — histogram-quantile estimation from the windowed
  bucket increments, via
  :func:`~repro.telemetry.metrics.quantile_from_buckets`.

Operators return ``None`` when the window holds too little data (fewer
than two points for the differential operators), never a guess — the
alert engine treats "no data" as "condition not met".
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

from repro.daemon import SystemTicker
from repro.errors import ReproError
from repro.runtime.clock import SECOND
from repro.telemetry.metrics import (
    HISTOGRAM,
    cumulative_at,
    quantile_from_buckets,
)

#: Default cap on buffered points per series (drop-oldest beyond it).
DEFAULT_MAX_POINTS = 512


class Series:
    """One scalar (counter/gauge) series: bounded ring of (t, value)."""

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

    # -- windowed operators --------------------------------------------------

    def _window(self, now_ns: int, window_ns: int) -> Tuple[int, int]:
        """Index range [lo, hi) of points with now-window <= t <= now."""
        lo = bisect_left(self.times, now_ns - window_ns)
        hi = bisect_right(self.times, now_ns)
        return lo, hi

    def latest(self, now_ns: int) -> Optional[float]:
        hi = bisect_right(self.times, now_ns)
        if hi == 0:
            return None
        return self.values[hi - 1]

    def delta(self, now_ns: int, window_ns: int) -> Optional[float]:
        lo, hi = self._window(now_ns, window_ns)
        if hi - lo < 2:
            return None
        return self.values[hi - 1] - self.values[lo]

    def rate(self, now_ns: int, window_ns: int) -> Optional[float]:
        """Increase per virtual second over the window."""
        lo, hi = self._window(now_ns, window_ns)
        if hi - lo < 2:
            return None
        span = self.times[hi - 1] - self.times[lo]
        if span <= 0:
            return None
        return (self.values[hi - 1] - self.values[lo]) / (span / SECOND)

    def avg_over_time(self, now_ns: int, window_ns: int) -> Optional[float]:
        lo, hi = self._window(now_ns, window_ns)
        if hi == lo:
            return None
        return sum(self.values[lo:hi]) / (hi - lo)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": self.labels,
            "points": [[t, v] for t, v in zip(self.times, self.values)],
            "dropped": self.dropped,
        }


class HistogramSeries:
    """One histogram series: per-point cumulative bucket snapshots."""

    __slots__ = ("name", "labelnames", "labelvalues", "buckets", "times",
                 "counts", "sums", "totals", "max_points", "dropped")

    kind = HISTOGRAM

    def __init__(self, name: str, labelnames: Tuple[str, ...],
                 labelvalues: Tuple[str, ...], buckets: Tuple[float, ...],
                 max_points: int = DEFAULT_MAX_POINTS):
        self.name = name
        self.labelnames = labelnames
        self.labelvalues = labelvalues
        self.buckets = buckets
        self.times: List[int] = []
        #: Cumulative bucket counts per point (``len(buckets)+1``, +Inf
        #: last) — deltas between two points are themselves valid
        #: cumulative counts of the observations in between.
        self.counts: List[Tuple[int, ...]] = []
        self.sums: List[float] = []
        self.totals: List[int] = []
        self.max_points = max_points
        self.dropped = 0

    @property
    def labels(self) -> Dict[str, str]:
        return dict(zip(self.labelnames, self.labelvalues))

    def append(self, t_ns: int, cumulative: Tuple[int, ...],
               total_sum: float, count: int) -> None:
        self.times.append(t_ns)
        self.counts.append(cumulative)
        self.sums.append(total_sum)
        self.totals.append(count)
        if len(self.times) > self.max_points:
            del self.times[0]
            del self.counts[0]
            del self.sums[0]
            del self.totals[0]
            self.dropped += 1

    def _window(self, now_ns: int, window_ns: int) -> Tuple[int, int]:
        lo = bisect_left(self.times, now_ns - window_ns)
        hi = bisect_right(self.times, now_ns)
        return lo, hi

    def delta_counts(
            self, now_ns: int,
            window_ns: int) -> Optional[Tuple[List[int], float, int]]:
        """Bucket/sum/count increases over the window, or None."""
        lo, hi = self._window(now_ns, window_ns)
        if hi - lo < 2:
            return None
        first, last = self.counts[lo], self.counts[hi - 1]
        return ([b - a for a, b in zip(first, last)],
                self.sums[hi - 1] - self.sums[lo],
                self.totals[hi - 1] - self.totals[lo])

    def quantile(self, q: float, now_ns: int,
                 window_ns: int) -> Optional[float]:
        """Estimated q-quantile of the observations inside the window."""
        window = self.delta_counts(now_ns, window_ns)
        if window is None or window[2] <= 0:
            return None
        return quantile_from_buckets(self.buckets, window[0], q)

    def bad_fraction(self, threshold: float, now_ns: int,
                     window_ns: int) -> Optional[float]:
        """Fraction of windowed observations above ``threshold``.

        The burn-rate primitive: with ``threshold`` the SLO bound,
        ``bad = (delta_count - delta_cum_le_threshold) / delta_count``.
        """
        window = self.delta_counts(now_ns, window_ns)
        if window is None or window[2] <= 0:
            return None
        counts, _, total = window
        good = cumulative_at(self.buckets, counts, threshold)
        return max(0.0, (total - good) / total)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": HISTOGRAM,
            "labels": self.labels,
            "buckets": list(self.buckets),
            "points": [[t, list(c), s, n]
                       for t, c, s, n in zip(self.times, self.counts,
                                             self.sums, self.totals)],
            "dropped": self.dropped,
        }


class TimeSeriesDB:
    """Bounded in-memory TSDB fed by registry scrapes."""

    def __init__(self, max_points: int = DEFAULT_MAX_POINTS):
        if max_points < 2:
            raise ValueError("max_points must be at least 2 "
                             "(windowed operators need two points)")
        self.max_points = max_points
        #: (metric name, label values) -> Series | HistogramSeries.
        self._series: Dict[Tuple[str, Tuple[str, ...]], object] = {}
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
                if metric.kind == HISTOGRAM:
                    if series is None:
                        series = HistogramSeries(
                            metric.name, metric.labelnames, values,
                            tuple(child.buckets),
                            max_points=self.max_points)
                        self._series[key] = series
                    series.append(now_ns, tuple(child.cumulative_counts()),
                                  child.sum, child.count)
                else:
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
        """Drop every buffered point (the per-schedule reset the chaos
        engine uses between runtimes, whose clocks restart at zero)."""
        self._series.clear()
        self.scrapes = 0
        self.last_scrape_ns = None

    # -- queries -------------------------------------------------------------

    def series(self, name: Optional[str] = None) -> List[object]:
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

    Each tick calls :meth:`TelemetryHub.scrape_tick`, which syncs the
    drop-count and clock gauges, appends one point per live series, and
    evaluates the alert rules at the scrape timestamp.
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
