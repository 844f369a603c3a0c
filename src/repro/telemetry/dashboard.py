"""``repro dash`` — a deterministic text dashboard over the fleet TSDB.

Drives a sequential fleet run with per-shard metric scraping enabled,
merges the shards' time series into one ``shard``-labelled rollup, and
renders two artifacts from it:

- a text dashboard (header, SLO alert table, alert timeline, ASCII
  sparkline panels per shard) — pure functions of the rollup, so two
  same-seed runs render byte-identical text;
- a schema-versioned JSON document (config, aggregate numbers, the full
  series rollup, per-shard alert summaries, and the merged alert
  timeline) validated by :func:`validate_dash_artifact`.

Everything here is derived from :class:`~repro.fleet.aggregate.FleetResult`
dumps — no live runtimes, no wall-clock — which is what makes byte
identity across runs a testable property instead of a hope.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import codec
from repro.codec import need
from repro.errors import ArtifactError
from repro.runtime.clock import MILLISECOND, SECOND

#: Bumped when the `repro dash` JSON artifact shape changes (2: the
#: aggregate carries ``tsdb_dropped_points``).
DASH_SCHEMA_VERSION = 2

#: Eight-level block ramp used for sparklines (space = no data).
_SPARK = "▁▂▃▄▅▆▇█"

#: Gauge/counter panels rendered per shard: (metric name, panel title).
PANELS = (
    ("repro_sched_live_goroutines", "live goroutines"),
    ("repro_sched_blocked_goroutines", "blocked goroutines"),
    ("repro_heap_live_bytes", "heap live bytes"),
    ("repro_detector_leaks_total", "leaks detected"),
    ("repro_gc_cycles_total", "gc cycles"),
    ("repro_recorder_dropped_total", "recorder drops"),
    ("repro_trace_dropped_total", "trace drops"),
)


#: Columns every sparkline is drawn in.
SPARKLINE_WIDTH = 40


def sparkline(values: List[float]) -> str:
    """Render ``values`` as a fixed-width ASCII sparkline.

    Downsamples by bucketing (max per bucket) so the line always fits
    :data:`SPARKLINE_WIDTH` columns; flat series render as the lowest
    block.  Pure — equal inputs render equal strings.
    """
    width = SPARKLINE_WIDTH
    if not values:
        return " " * width
    if len(values) > width:
        bucketed = []
        for i in range(width):
            lo = i * len(values) // width
            hi = max(lo + 1, (i + 1) * len(values) // width)
            bucketed.append(max(values[lo:hi]))
        values = bucketed
    low, high = min(values), max(values)
    span = high - low
    out = []
    for v in values:
        if span <= 0:
            out.append(_SPARK[0])
        else:
            idx = int((v - low) / span * (len(_SPARK) - 1))
            out.append(_SPARK[idx])
    line = "".join(out)
    return line + " " * (width - len(line))


class DashResult:
    """One ``repro dash`` run: the fleet outcome plus its renderings."""

    def __init__(self, fleet, scrape_interval_ms: float):
        self.fleet = fleet
        self.scrape_interval_ms = scrape_interval_ms

    @property
    def clean(self) -> bool:
        return self.fleet.clean

    def to_dict(self) -> dict:
        fleet = self.fleet
        agg = fleet.to_dict()["aggregate"]
        rollup = fleet.tsdb_rollup()
        shard_ids = sorted(fleet.alert_sources, key=int)
        # Every shard evaluates the same rule set; declare it once.
        rules = (fleet.alert_sources[shard_ids[0]]["rules"]
                 if shard_ids else [])
        return {
            "schema_version": DASH_SCHEMA_VERSION,
            "config": dict(fleet.config),
            "aggregate": {
                "users": agg["users"],
                "requests_completed": agg["requests_completed"],
                "makespan_ns": agg["makespan_ns"],
                "sustained_rps": agg["sustained_rps"],
                "leaks_detected": agg["leaks_detected"],
                "leaks_reclaimed": agg["leaks_reclaimed"],
                "leaks_per_s": agg["leaks_per_s"],
                "fingerprints": len(fleet.fingerprints),
                "tsdb_dropped_points": rollup["dropped_points"],
            },
            "rollup": rollup,
            "alert_timeline": fleet.alert_timeline(),
            "alerts": {sid: fleet.alert_sources[sid]["summary"]
                       for sid in shard_ids},
            "rules": rules,
            "problems": list(fleet.problems),
            "clean": fleet.clean,
        }

    # -- text dashboard -------------------------------------------------------

    def format(self) -> str:
        doc = self.to_dict()
        agg = doc["aggregate"]
        lines = [
            f"repro dash: {len(self.fleet.shards)} shard(s), "
            f"scrape every {self.scrape_interval_ms:g}ms virtual, "
            f"{'clean' if doc['clean'] else 'DIRTY'}",
            f"  requests : {agg['requests_completed']} "
            f"({agg['sustained_rps']:.1f} rps sustained, makespan "
            f"{agg['makespan_ns'] / SECOND:.3f}s virtual)",
            f"  leaks    : {agg['leaks_detected']} detected, "
            f"{agg['leaks_reclaimed']} reclaimed "
            f"({agg['leaks_per_s']:.1f}/s, "
            f"{agg['fingerprints']} fingerprint(s))",
            f"  drops    : {agg['tsdb_dropped_points']} TSDB point(s) "
            f"evicted (recorder and trace drops: panels below)",
            "",
        ]
        lines.extend(self._format_slo_table(doc))
        lines.append("")
        lines.extend(self._format_timeline(doc))
        lines.append("")
        lines.extend(self._format_panels(doc))
        for problem in doc["problems"]:
            lines.append(f"  PROBLEM: {problem}")
        return "\n".join(lines) + "\n"

    def _format_slo_table(self, doc: dict) -> List[str]:
        lines = ["SLO alerts (per shard):",
                 f"  {'rule':<24s} {'severity':<9s} "
                 f"{'shard':<6s} {'state':<9s} fired/resolved"]
        for sid in sorted(doc["alerts"], key=int):
            summary = doc["alerts"][sid]
            for rule in sorted(summary):
                row = summary[rule]
                state = "ACTIVE" if row["active"] else "ok"
                lines.append(
                    f"  {rule:<24s} {row['severity']:<9s} "
                    f"{sid:<6s} {state:<9s} "
                    f"{row['fired']}/{row['resolved']}")
        return lines

    def _format_timeline(self, doc: dict) -> List[str]:
        events = doc["alert_timeline"]
        lines = [f"alert timeline ({len(events)} transition(s)):"]
        if not events:
            lines.append("  (none)")
        for e in events:
            labels = "".join(
                f" {k}={v}" for k, v in sorted(e["labels"].items()))
            lines.append(
                f"  t={e['t'] / MILLISECOND:10.3f}ms shard={e['shard']} "
                f"[{e['severity']}] {e['rule']}: "
                f"{e['from']} -> {e['to']} ({e['kind']}){labels}")
        return lines

    def _format_panels(self, doc: dict) -> List[str]:
        rollup = doc["rollup"]
        # Labelled counters (gc cycles by reason, leaks by site, ...)
        # fold into one per-shard total, summed pointwise — sub-series
        # share scrape timestamps, so alignment by time is exact.
        by_key: Dict[tuple, Dict[int, float]] = {}
        for series in rollup["series"]:
            if series["kind"] == "histogram":
                continue
            shard = series["labels"].get("shard")
            if shard is None:
                continue
            acc = by_key.setdefault((series["name"], shard), {})
            for t, v in series["points"]:
                acc[t] = acc.get(t, 0.0) + float(v)
        lines = ["panels (one sparkline per shard):"]
        for name, title in PANELS:
            for shard in rollup["sources"]:
                acc = by_key.get((name, shard))
                if acc is None:
                    continue
                values = [acc[t] for t in sorted(acc)]
                last = values[-1] if values else 0.0
                lines.append(
                    f"  {title:<20s} shard {shard}: "
                    f"{sparkline(values)} last={last:g}")
        return lines


def run_dash(
    shards: int = 2,
    users: int = 16,
    seed: int = 0,
    workload: str = "controlled",
    policy: str = "hash",
    leak_rate: float = 0.1,
    procs: int = 2,
    daemon_ms: Optional[float] = 10.0,
    scrape_ms: float = 5.0,
) -> DashResult:
    """Run a sequential fleet with scraping on and wrap it for rendering.

    Sequential mode is the deterministic oracle, which is exactly what a
    byte-identical dashboard needs; ``shards=1`` covers the single-
    runtime story, ``shards>=2`` the shard-labelled fleet rollup.
    """
    from repro.fleet.supervisor import FleetConfig, run_fleet

    if scrape_ms <= 0:
        raise ValueError("scrape_ms must be positive")
    config = FleetConfig(
        shards=shards, seed=seed, users=users, policy=policy,
        workload=workload, leak_rate=leak_rate, procs_per_shard=procs,
        daemon_interval_ms=daemon_ms, scrape_interval_ms=scrape_ms)
    fleet = run_fleet(config, mode="sequential")
    return DashResult(fleet, scrape_interval_ms=scrape_ms)


def validate_dash_artifact(doc: dict) -> Dict[str, int]:
    """Strictly check a ``repro dash`` JSON artifact; raises
    :class:`~repro.errors.ArtifactError`.

    Returns summary counts for the CLI to print.
    """
    codec.need_version(doc, DASH_SCHEMA_VERSION, "artifact")
    need(doc, "config", dict, "artifact")
    need(doc, "clean", bool, "artifact")
    need(doc, "problems", list, "artifact")
    need(doc, "aggregate", dict, "artifact")
    for key in ("users", "requests_completed", "makespan_ns",
                "leaks_detected", "leaks_reclaimed", "fingerprints",
                "tsdb_dropped_points"):
        need(doc["aggregate"], key, int, "aggregate")
    rollup = need(doc, "rollup", dict, "artifact")
    sources = need(rollup, "sources", list, "rollup")
    if not sources:
        raise ArtifactError("rollup: no sources")
    if not all(isinstance(source, str) for source in sources):
        raise ArtifactError("rollup: 'sources' should hold strings")
    series = need(rollup, "series", list, "rollup")
    if not series:
        raise ArtifactError("rollup: no series")
    label = need(rollup, "label", str, "rollup")
    for i, s in enumerate(series):
        where = f"rollup.series[{i}]"
        need(s, "name", str, where)
        need(s, "kind", str, where)
        labels = need(s, "labels", dict, where)
        if labels.get(label) not in sources:
            raise ArtifactError(
                f"{where}: {label!r} label {labels.get(label)!r} "
                f"not a rollup source")
        times = []
        for k, point in enumerate(need(s, "points", list, where)):
            if not (isinstance(point, list) and point
                    and isinstance(point[0], (int, float))):
                raise ArtifactError(
                    f"{where}: points[{k}] should be [t, value]")
            times.append(point[0])
        if times != sorted(times):
            raise ArtifactError(f"{where}: points not time-ordered")
    alerts = need(doc, "alerts", dict, "artifact")
    if set(alerts) != set(sources):
        raise ArtifactError("artifact: alert summaries and sources disagree")
    rules = need(doc, "rules", list, "artifact")
    rule_names = {need(rule, "name", str, f"rules[{k}]")
                  for k, rule in enumerate(rules)}
    timeline = need(doc, "alert_timeline", list, "artifact")
    last_t = None
    for j, event in enumerate(timeline):
        where = f"alert_timeline[{j}]"
        for key in ("severity", "labels", "from", "to", "kind", "shard"):
            need(event, key, object, where)
        if need(event, "rule", str, where) not in rule_names:
            raise ArtifactError(
                f"{where}: rule {event['rule']!r} not declared in rules")
        if str(event["shard"]) not in sources:
            raise ArtifactError(
                f"{where}: shard {event['shard']!r} not a rollup source")
        t = need(event, "t", (int, float), where)
        if last_t is not None and t < last_t:
            raise ArtifactError(f"{where}: timeline not time-ordered")
        last_t = t
    return {
        "sources": len(sources),
        "series": len(series),
        "alert_transitions": len(timeline),
        "rules": len(rules),
    }
