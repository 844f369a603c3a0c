"""Exporters: ``.prom`` textfiles, JSON artifacts, and the operator report.

Also home of :func:`validate_exposition` — a strict parser for the
Prometheus text format that every writer of a ``.prom`` file runs before
writing, to prove the exposition is actually scrapeable — and of
:func:`run_observed_benchmark`, the driver behind ``python -m repro obs``.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Optional

from repro import codec
from repro.errors import ArtifactError
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.profiles import format_heap_profile, heap_profile

_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})?'
    r'\s+(?P<value>[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN))$'
)
_LABEL_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$'
)


def validate_exposition(text: str) -> int:
    """Parse a Prometheus text exposition strictly.

    Returns the number of samples; raises :class:`ArtifactError` on any
    malformed line (the writing command fails on it) and on
    two samples sharing a name and label set — duplicate series would
    silently alias under a real scraper's last-write-wins.
    """
    samples = 0
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        if line.startswith("#"):
            raise ArtifactError(f"line {lineno}: unknown comment {line!r}")
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ArtifactError(f"line {lineno}: malformed sample {line!r}")
        labels = match.group("labels")
        pairs = []
        if labels:
            pairs = _split_labels(labels)
            for pair in pairs:
                if not _LABEL_RE.match(pair):
                    raise ArtifactError(
                        f"line {lineno}: malformed label {pair!r}")
        series = (match.group("name"), tuple(sorted(pairs)))
        if series in seen:
            raise ArtifactError(
                f"line {lineno}: duplicate series {line!r} "
                f"(same name and label set seen earlier)")
        seen.add(series)
        samples += 1
    if samples == 0:
        raise ArtifactError("exposition contains no samples")
    return samples


def _split_labels(labels: str) -> List[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    parts, buf, in_quotes, escaped = [], [], False, False
    for ch in labels:
        if escaped:
            buf.append(ch)
            escaped = False
            continue
        if ch == "\\":
            buf.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
        if ch == "," and not in_quotes:
            parts.append("".join(buf))
            buf = []
            continue
        buf.append(ch)
    if buf:
        parts.append("".join(buf))
    return parts


# -- artifact writing --------------------------------------------------------


def write_artifacts(hub: TelemetryHub, out_dir: str,
                    basename: str) -> Dict[str, str]:
    """Write the full artifact set; returns ``{kind: path}``.

    - ``<basename>.prom`` — Prometheus text exposition (validated by
      :func:`validate_exposition` before anything is written),
    - ``<basename>-metrics.json`` — JSON snapshot (round-trips),
    - ``<basename>-recorder.txt`` — flight-recorder dump with incidents,
    - ``<basename>-fingerprints.json`` — leak fingerprint store.
    """
    stem = os.path.join(out_dir, basename)
    prom = hub.render_prometheus()
    validate_exposition(prom)
    return {
        "prometheus": codec.write_text(f"{stem}.prom", prom),
        "metrics_json": codec.write(f"{stem}-metrics.json", hub.snapshot()),
        "recorder": codec.write_text(f"{stem}-recorder.txt",
                                     hub.recorder.dump() + "\n"),
        "fingerprints": codec.write(f"{stem}-fingerprints.json",
                                    hub.fingerprints.as_dict()),
    }


# -- the `repro obs` driver --------------------------------------------------


class ObsResult:
    """Everything ``python -m repro obs`` produced."""

    def __init__(self, benchmark: str, procs: int, seed: int):
        self.benchmark = benchmark
        self.procs = procs
        self.seed = seed
        self.hub: Optional[TelemetryHub] = None
        self.reports = 0
        self.reclaimed = 0
        self.heap_profile_text = ""
        self.artifact_paths: Dict[str, str] = {}

    def format(self) -> str:
        hub = self.hub
        lines = [
            f"observability report: {self.benchmark} "
            f"(procs={self.procs}, seed={self.seed})",
            f"  leak reports    : {self.reports}  "
            f"(reclaimed {self.reclaimed})",
            f"  gc cycles       : "
            f"{int(_metric_total(hub, 'repro_gc_cycles_total'))}",
            f"  context switches: "
            f"{int(hub.ctx_switches.value)}",
            f"  recorder        : {len(hub.recorder)} event(s), "
            f"{hub.recorder.dropped} dropped, "
            f"{len(hub.recorder.incidents)} incident(s)",
            "",
            hub.fingerprints.format(),
            "",
            self.heap_profile_text,
        ]
        if self.artifact_paths:
            lines.append("")
            lines.append("artifacts:")
            for kind in sorted(self.artifact_paths):
                lines.append(f"  {kind:<13s}: {self.artifact_paths[kind]}")
        return "\n".join(lines)


def _metric_total(hub: TelemetryHub, name: str) -> float:
    metric = hub.registry.get(name)
    if metric is None:
        return 0.0
    return sum(child.value for _, child in metric.series())


def run_observed_benchmark(
    benchmark: str, procs: int = 2, seed: int = 0,
    hub: Optional[TelemetryHub] = None,
    fingerprint_db: Optional[str] = None,
    run_id: Optional[str] = None,
) -> ObsResult:
    """Run one microbenchmark with full telemetry and return the evidence.

    ``fingerprint_db`` points at a persistent store: fingerprints from
    previous invocations are merged in first, so a second identical run
    aggregates onto the existing records instead of re-reporting.
    """
    from repro.microbench.harness import run_microbenchmark
    from repro.microbench.registry import benchmarks_by_name
    from repro.telemetry import recorder as rec

    benches = benchmarks_by_name()
    if benchmark not in benches:
        raise KeyError(
            f"unknown benchmark {benchmark!r}; see "
            f"repro.microbench.registry.all_benchmarks()")
    hub = hub or TelemetryHub(min_severity=rec.DEBUG)
    if fingerprint_db and os.path.exists(fingerprint_db):
        hub.fingerprints.load(fingerprint_db)
    hub.fingerprints.begin_run(
        run_id or f"obs-{benchmark}-p{procs}-s{seed}-"
                  f"{hub.fingerprints.runs_started + 1}")

    result = ObsResult(benchmark, procs, seed)
    result.hub = hub
    captured: List = []

    def hook(rt) -> None:
        hub.attach(rt)
        captured.append(rt)

    run_microbenchmark(benches[benchmark], procs=procs, seed=seed,
                       rt_hook=hook)
    rt = captured[0]
    rt.gc_until_quiescent()
    hub.sampler.sample(rt)
    result.reports = rt.reports.total()
    result.reclaimed = rt.collector.stats.total_goroutines_reclaimed
    result.heap_profile_text = format_heap_profile(heap_profile(rt.heap))
    if fingerprint_db:
        hub.fingerprints.save(fingerprint_db)
    rt.shutdown()
    return result
