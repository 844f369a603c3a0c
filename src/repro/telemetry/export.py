"""Exporters: ``.prom`` textfiles and JSON artifacts.

Also home of :func:`validate_exposition` — a strict parser for the
Prometheus text format that every writer of a ``.prom`` file runs before
writing, to prove the exposition is actually scrapeable.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List

from repro import codec
from repro.errors import ArtifactError
from repro.telemetry.hub import TelemetryHub

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
