"""Garbage collection: heap, tricolor marking, collector, statistics."""

from repro import lazy_exports

_EXPORTS = {
    "Collector": "collector",
    "GCPhase": "phases",
    "Heap": "heap",
    "CycleStats": "stats",
    "GCStats": "stats",
    "MemStats": "stats",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
