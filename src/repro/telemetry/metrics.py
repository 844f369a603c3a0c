"""The metrics registry: Counter / Gauge / Histogram with labels.

Instruments follow the Prometheus data model — monotonic counters,
point-in-time gauges, and cumulative-bucket histograms, each optionally
split by a fixed set of label names.  Two renderings are provided:

- :meth:`MetricsRegistry.snapshot` — a JSON-serializable dict that
  round-trips losslessly (the ``-metrics.json`` artifact);
- :func:`render_merged_prometheus` — the text exposition format
  (``name{label="value"} 42``) of one or several snapshots, suitable
  for a ``.prom`` textfile collector drop
  (:meth:`MetricsRegistry.render_prometheus` is it over one).

Everything is deterministic: samples are ordered by metric name and then
by label values, timestamps come from the *virtual* clock (exposed as the
``repro_clock_ns`` gauge rather than per-sample suffixes), and no wall
time ever leaks in.  Two runs of the same ``(program, procs, seed)``
therefore produce byte-identical expositions.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Default histogram buckets for virtual-time durations (ns): 1us..1s.
DURATION_BUCKETS_NS = (
    1_000, 10_000, 100_000, 1_000_000, 5_000_000, 10_000_000,
    50_000_000, 100_000_000, 500_000_000, 1_000_000_000,
)

#: Default buckets for dimensionless sizes/depths.
SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096)


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def quantile_from_buckets(bounds: Sequence[float],
                          cumulative: Sequence[float], q: float) -> float:
    """Estimate the q-quantile from cumulative histogram buckets.

    Prometheus ``histogram_quantile`` semantics: the target rank
    ``q * total`` is located in the first bucket whose cumulative count
    reaches it, and the value is linearly interpolated between the
    bucket's bounds (the first bucket interpolates from 0).  A rank
    landing in the ``+Inf`` bucket is clamped to the highest finite
    bound.  Returns ``nan`` for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    if len(cumulative) != len(bounds) + 1:
        raise ValueError(
            f"expected {len(bounds) + 1} cumulative counts "
            f"(+Inf last), got {len(cumulative)}")
    total = cumulative[-1]
    if total <= 0:
        return math.nan
    rank = q * total
    for i, cum in enumerate(cumulative):
        prev = cumulative[i - 1] if i else 0
        in_bucket = cum - prev
        if in_bucket <= 0:
            continue  # an empty bucket can't hold the rank
        if cum >= rank:
            if i == len(bounds):  # +Inf bucket: clamp
                return float(bounds[-1]) if bounds else math.nan
            lo = float(bounds[i - 1]) if i else 0.0
            hi = float(bounds[i])
            if rank <= prev:
                return lo
            return lo + (hi - lo) * (rank - prev) / in_bucket
    return float(bounds[-1]) if bounds else math.nan


def cumulative_at(bounds: Sequence[float], cumulative: Sequence[float],
                  x: float) -> float:
    """Estimated count of observations ``<= x`` (linear within buckets).

    The inverse direction of :func:`quantile_from_buckets`, used by the
    burn-rate rules: observations in the ``+Inf`` bucket are above every
    finite ``x``, so ``x >= bounds[-1]`` returns the cumulative count of
    the highest finite bucket.
    """
    if len(cumulative) != len(bounds) + 1:
        raise ValueError(
            f"expected {len(bounds) + 1} cumulative counts "
            f"(+Inf last), got {len(cumulative)}")
    if not bounds or x < 0:
        return 0.0
    if x >= bounds[-1]:
        return float(cumulative[-2])
    prev_bound, prev_cum = 0.0, 0.0
    for bound, cum in zip(bounds, cumulative):
        if x <= bound:
            span = float(bound) - prev_bound
            portion = 1.0 if span <= 0 else (x - prev_bound) / span
            return prev_cum + portion * (cum - prev_cum)
        prev_bound, prev_cum = float(bound), float(cum)
    return float(cumulative[-2])


class CounterChild:
    """One labeled series of a counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class GaugeChild:
    """One labeled series of a gauge."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class HistogramChild:
    """One labeled series of a histogram (cumulative buckets)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]):
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 for +Inf
        self.sum = 0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        # The first bound >= value; past the last one (and nan, which no
        # bound admits but bisect would file first) is the +Inf bucket.
        if value != value:
            self.counts[-1] += 1
        else:
            self.counts[bisect_left(self.buckets, value)] += 1

    def cumulative_counts(self) -> List[int]:
        total = 0
        out = []
        for c in self.counts:
            total += c
            out.append(total)
        return out

    def quantile(self, q: float) -> float:
        """Estimated q-quantile of everything observed so far (linear
        interpolation within buckets, ``+Inf`` clamped to the highest
        finite bound; ``nan`` when empty)."""
        return quantile_from_buckets(self.buckets,
                                     self.cumulative_counts(), q)


_CHILD_TYPES = {COUNTER: CounterChild, GAUGE: GaugeChild,
                HISTOGRAM: HistogramChild}


class Metric:
    """One named instrument, fanned out into per-label-value children.

    A metric without label names has a single implicit child and exposes
    ``inc``/``set``/``observe`` directly; labeled metrics hand out
    children via :meth:`labels` (cache the child on hot paths).
    """

    __slots__ = ("name", "help", "kind", "labelnames", "unit", "buckets",
                 "_children", "_series")

    def __init__(self, name: str, help_text: str, kind: str,
                 labelnames: Sequence[str] = (), unit: str = "",
                 buckets: Tuple[float, ...] = DURATION_BUCKETS_NS):
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self.unit = unit
        self.buckets = tuple(buckets)
        if kind == HISTOGRAM and list(self.buckets) != sorted(self.buckets):
            raise ValueError(f"{name}: histogram buckets must ascend")
        self._children: Dict[Tuple[str, ...], object] = {}
        #: :meth:`series` result, kept until a child is created.
        self._series: Optional[tuple] = None
        if not self.labelnames:
            self._children[()] = self._new_child()

    def _new_child(self):
        self._series = None
        if self.kind == HISTOGRAM:
            return HistogramChild(self.buckets)
        return _CHILD_TYPES[self.kind]()

    def labels(self, *values: str, **kv: str):
        """The child for one combination of label values."""
        if kv:
            if values:
                raise ValueError("pass labels positionally or by name")
            values = tuple(str(kv[name]) for name in self.labelnames)
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {values!r}")
        child = self._children.get(values)
        if child is None:
            child = self._new_child()
            self._children[values] = child
        return child

    # Convenience passthroughs for label-less metrics.

    def inc(self, amount: float = 1) -> None:
        self._children[()].inc(amount)

    def set(self, value: float) -> None:
        self._children[()].set(value)

    def dec(self, amount: float = 1) -> None:
        self._children[()].dec(amount)

    def observe(self, value: float) -> None:
        self._children[()].observe(value)

    def quantile(self, q: float) -> float:
        return self._children[()].quantile(q)

    @property
    def value(self):
        return self._children[()].value

    def series(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        """(label values, child) pairs sorted by label-value tuple —
        codepoint order, so the rendering is locale-independent no
        matter when a child (or the metric itself) was registered.
        Sorted once per child set: only creating a child changes it."""
        if self._series is None:
            self._series = tuple(
                sorted(self._children.items(), key=lambda kv: kv[0]))
        return self._series


class MetricsRegistry:
    """Holds every instrument; renders expositions and snapshots."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # -- registration --------------------------------------------------------

    def _register(self, name: str, help_text: str, kind: str,
                  labelnames: Sequence[str], unit: str,
                  buckets: Tuple[float, ...] = DURATION_BUCKETS_NS) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if (existing.kind != kind
                    or existing.labelnames != tuple(labelnames)):
                raise ValueError(
                    f"metric {name!r} re-registered with a different "
                    f"kind/labels")
            return existing
        metric = Metric(name, help_text, kind, labelnames, unit, buckets)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = (), unit: str = "") -> Metric:
        return self._register(name, help_text, COUNTER, labelnames, unit)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = (), unit: str = "") -> Metric:
        return self._register(name, help_text, GAUGE, labelnames, unit)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = (), unit: str = "",
                  buckets: Tuple[float, ...] = DURATION_BUCKETS_NS) -> Metric:
        return self._register(name, help_text, HISTOGRAM, labelnames, unit,
                              buckets)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __iter__(self):
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def __len__(self) -> int:
        return len(self._metrics)

    # -- renderings ----------------------------------------------------------

    def render_prometheus(self) -> str:
        """The text exposition format, deterministically ordered."""
        return render_merged_prometheus({None: self.snapshot()})

    def snapshot(self) -> dict:
        """A JSON-serializable snapshot of every series."""
        out: Dict[str, dict] = {}
        for metric in self:
            samples = []
            for values, child in metric.series():
                labels = dict(zip(metric.labelnames, values))
                if metric.kind == HISTOGRAM:
                    samples.append({
                        "labels": labels,
                        "buckets": list(child.buckets),
                        "counts": list(child.counts),
                        "sum": child.sum,
                        "count": child.count,
                    })
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[metric.name] = {
                "kind": metric.kind,
                "help": metric.help,
                "unit": metric.unit,
                "samples": samples,
            }
        return out


def source_key(source) -> tuple:
    """Sort key for source ids: numeric ones (shard ids) numerically, so
    shard 10 lands after shard 2 — locale-free and stable for any mix."""
    s = str(source)
    return (0, int(s), s) if s.isdigit() else (1, 0, s)


def render_merged_prometheus(snapshots: Dict[Optional[str], dict],
                             label: str = "shard") -> str:
    """The one Prometheus text renderer: snapshots in, exposition out.

    ``snapshots`` maps a source id (shard id as a string) to a
    :meth:`MetricsRegistry.snapshot` dict.  Every sample gains a
    ``label="<source>"`` pair — except under the source ``None``, which
    stamps nothing (one registry's plain exposition).  HELP/TYPE headers
    appear once per metric, series are ordered by (metric name, source,
    label values) and the pairs inside ``{}`` by label name — so the
    result is deterministic and parses under
    :func:`~repro.telemetry.export.validate_exposition`.  Snapshot-based
    (rather than registry-based) because fleet worker processes ship
    their metrics home as JSON; the sequential oracle mode feeds the
    same structure, which is what makes the two modes' expositions
    comparable.
    """
    # name -> (kind, help, [(source, sample), ...]) in deterministic order.
    merged: Dict[str, dict] = {}
    for source in sorted(snapshots, key=source_key):
        for name, metric in snapshots[source].items():
            entry = merged.setdefault(
                name, {"kind": metric["kind"], "help": metric.get("help", ""),
                       "rows": []})
            if entry["kind"] != metric["kind"]:
                raise ValueError(
                    f"metric {name!r} has kind {metric['kind']!r} in source "
                    f"{source!r} but {entry['kind']!r} elsewhere")
            for sample in metric["samples"]:
                if source is not None and label in sample["labels"]:
                    raise ValueError(
                        f"metric {name!r} already carries a {label!r} label; "
                        f"merging would alias series")
                entry["rows"].append((source, sample))

    def braces(pairs: List[str]) -> str:
        return "{" + ",".join(pairs) + "}" if pairs else ""

    lines: List[str] = []
    for name in sorted(merged):
        entry = merged[name]
        if entry["help"]:
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {entry['kind']}")
        for source, sample in entry["rows"]:
            pairs = ([] if source is None
                     else [f'{label}="{_escape_label(str(source))}"'])
            pairs.extend(f'{k}="{_escape_label(str(v))}"'
                         for k, v in sorted(sample["labels"].items()))
            if entry["kind"] == HISTOGRAM:
                bounds = ([_format_value(b) for b in sample["buckets"]]
                          + ["+Inf"])
                total = 0
                for bound, count in zip(bounds, sample["counts"]):
                    total += count
                    bucket = braces(pairs + [f'le="{bound}"'])
                    lines.append(f"{name}_bucket{bucket} {total}")
                lines.append(f"{name}_sum{braces(pairs)} "
                             f"{_format_value(sample['sum'])}")
                lines.append(
                    f"{name}_count{braces(pairs)} {sample['count']}")
            else:
                lines.append(f"{name}{braces(pairs)} "
                             f"{_format_value(sample['value'])}")
    return "\n".join(lines) + "\n"
