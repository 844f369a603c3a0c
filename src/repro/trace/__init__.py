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

from repro import lazy_exports

#: Each public name and the module that defines it.  A name is imported
#: on first use (PEP 562), so an untraced run, whose detections read
#: only ``events`` and ``provenance``, loads no tracer or exporter code.
_EXPORTS = {
    "TraceEvent": "events",
    "VOCABULARY": "events",
    "ExecutionTracer": "tracer",
    "export_chrome_trace": "chrome",
    "validate_chrome_trace": "chrome",
    "ProvenanceRecord": "provenance",
    "capture_provenance": "provenance",
    "provenance_document": "provenance",
    "provenance_text": "provenance",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
