"""Execution tracing and leak provenance (see ``docs/TRACING.md``).

Four modules:

- :mod:`repro.trace.events` — the fixed event vocabulary and the
  structured :class:`TraceEvent`;
- :mod:`repro.trace.tracer` — :class:`ExecutionTracer`, the ring-buffered
  event stream the runtime hooks feed (``rt.enable_tracing()``);
- :mod:`repro.trace.chrome` — Chrome trace-event JSON export/validation
  (Perfetto / ``chrome://tracing``);
- :mod:`repro.trace.provenance` — the why-leaked evidence the collector
  captures for every condemned goroutine, and its JSON / text renderings.

``repro run`` drives all four: it traces one registry program and writes
the Chrome trace and the why-leaked artifacts.
"""

from repro.trace import events  # noqa: F401  (import order: events first)
from repro.trace.events import TraceEvent, VOCABULARY  # noqa: F401
from repro.trace.tracer import ExecutionTracer  # noqa: F401
from repro.trace.chrome import (  # noqa: F401
    export_chrome_trace,
    validate_chrome_trace,
)
from repro.trace.provenance import (  # noqa: F401
    ProvenanceRecord,
    capture_provenance,
    provenance_document,
    provenance_text,
)

__all__ = [
    "TraceEvent", "VOCABULARY", "ExecutionTracer",
    "export_chrome_trace", "validate_chrome_trace",
    "ProvenanceRecord", "capture_provenance", "provenance_document",
    "provenance_text",
]
