"""The metrics registry: Counter / Gauge with labels.

Instruments follow the Prometheus data model — monotonic counters and
point-in-time gauges, each optionally split by a fixed set of label
names.  Two renderings are provided:

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


_CHILD_TYPES = {COUNTER: CounterChild, GAUGE: GaugeChild}


class Metric:
    """One named instrument, fanned out into per-label-value children.

    A metric without label names has a single implicit child and exposes
    ``inc``/``set`` directly; labeled metrics hand out
    children via :meth:`labels` (cache the child on hot paths).
    """

    __slots__ = ("name", "help", "kind", "labelnames", "unit", "_children",
                 "_series")

    def __init__(self, name: str, help_text: str, kind: str,
                 labelnames: Sequence[str] = (), unit: str = ""):
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self.unit = unit
        self._children: Dict[Tuple[str, ...], object] = {}
        #: :meth:`series` result, kept until a child is created.
        self._series: Optional[tuple] = None
        if not self.labelnames:
            self._children[()] = self._new_child()

    def _new_child(self):
        self._series = None
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
        #: Every metric in name order, kept sorted by :meth:`_register`
        #: (the only mutation) so iterating never sorts.
        self._ordered: List[Metric] = []

    # -- registration --------------------------------------------------------

    def _register(self, name: str, help_text: str, kind: str,
                  labelnames: Sequence[str], unit: str) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if (existing.kind != kind
                    or existing.labelnames != tuple(labelnames)):
                raise ValueError(
                    f"metric {name!r} re-registered with a different "
                    f"kind/labels")
            return existing
        metric = Metric(name, help_text, kind, labelnames, unit)
        self._metrics[name] = metric
        names = [m.name for m in self._ordered]
        self._ordered.insert(bisect_left(names, name), metric)
        return metric

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> Metric:
        return self._register(name, help_text, COUNTER, labelnames, "")

    def gauge(self, name: str, help_text: str = "",
              unit: str = "") -> Metric:
        return self._register(name, help_text, GAUGE, (), unit)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __iter__(self):
        return iter(self._ordered)

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
            samples = [{"labels": dict(zip(metric.labelnames, values)),
                        "value": child.value}
                       for values, child in metric.series()]
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


def render_merged_prometheus(snapshots: Dict[Optional[str], dict]) -> str:
    """The one Prometheus text renderer: snapshots in, exposition out.

    ``snapshots`` maps a source id (shard id as a string) to a
    :meth:`MetricsRegistry.snapshot` dict.  Every sample gains a
    ``shard="<source>"`` pair — except under the source ``None``, which
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
                if source is not None and "shard" in sample["labels"]:
                    raise ValueError(
                        f"metric {name!r} already carries a 'shard' label; "
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
                     else [f'shard="{_escape_label(str(source))}"'])
            pairs.extend(f'{k}="{_escape_label(str(v))}"'
                         for k, v in sorted(sample["labels"].items()))
            lines.append(f"{name}{braces(pairs)} "
                         f"{_format_value(sample['value'])}")
    return "\n".join(lines) + "\n"
