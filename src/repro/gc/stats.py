"""GC statistics: per-cycle records and a ``runtime.MemStats`` analog.

The paper's Table 2 reports Go ``MemStats`` fields (HeapAlloc, HeapInuse,
HeapObjects, StackInuse, PauseTotalNs, NumGC, GCCPUFraction).  This module
keeps the same vocabulary so the benchmark harness can print the same
rows.
"""

from __future__ import annotations

from typing import List


class CycleStats:
    """Metrics from a single collection cycle."""

    __slots__ = (
        "cycle", "reason", "mode", "started_at_ns",
        "heap_bytes_before", "heap_bytes_after",
        "heap_objects_before", "heap_objects_after",
        "mark_iterations", "mark_work_units", "mark_clock_ns",
        "liveness_checks",
        "pause_setup_ns", "pause_termination_ns",
        "swept_objects", "swept_bytes", "finalizers_queued",
        "deadlocks_detected", "deadlocks_kept_for_finalizers",
        "goroutines_reclaimed", "reachable_dead_bytes",
        "barrier_shades", "mark_steps", "sweep_steps",
        "root_reexpansions", "rescan_work_units",
    )

    def __init__(self, cycle: int, reason: str, mode: str,
                 started_at_ns: int):
        self.cycle = cycle
        self.reason = reason
        self.mode = mode
        self.started_at_ns = started_at_ns
        self.heap_bytes_before = 0
        self.heap_bytes_after = 0
        self.heap_objects_before = 0
        self.heap_objects_after = 0
        self.mark_iterations = 0
        self.mark_work_units = 0
        self.mark_clock_ns = 0
        self.liveness_checks = 0
        # The two STW windows of a cycle.  The atomic collector performs
        # both back to back; the incremental phase machine separates them
        # by the concurrent MARKING phase.  ``pause_ns`` (a property)
        # remains the per-cycle total for Table-2-style aggregates.
        self.pause_setup_ns = 0
        self.pause_termination_ns = 0
        self.swept_objects = 0
        self.swept_bytes = 0
        self.finalizers_queued = 0
        self.deadlocks_detected = 0
        self.deadlocks_kept_for_finalizers = 0
        self.goroutines_reclaimed = 0
        # Bytes kept reachable only through deadlocked goroutines — the
        # liveness precision gap the GOLF detector closes over time.
        self.reachable_dead_bytes = 0
        # Incremental-mode instrumentation (all zero under atomic mode):
        # write-barrier shades, bounded mark/sweep steps the scheduler
        # interleaved with mutators, masked goroutines re-expanded into
        # the root set after a mid-cycle wake, and mark-termination stack
        # rescan work (not charged to ``mark_clock_ns``).
        self.barrier_shades = 0
        self.mark_steps = 0
        self.sweep_steps = 0
        self.root_reexpansions = 0
        self.rescan_work_units = 0

    @property
    def pause_ns(self) -> int:
        """Total STW time of the cycle (setup + termination windows)."""
        return self.pause_setup_ns + self.pause_termination_ns

    @property
    def max_pause_window_ns(self) -> int:
        """The longest single STW window of this cycle."""
        return max(self.pause_setup_ns, self.pause_termination_ns)

    def __repr__(self) -> str:
        return (
            f"<gc cycle={self.cycle} mode={self.mode} reason={self.reason} "
            f"iters={self.mark_iterations} work={self.mark_work_units} "
            f"deadlocks={self.deadlocks_detected} "
            f"swept={self.swept_bytes}B pause={self.pause_ns}ns>"
        )


class GCStats:
    """Accumulated collector statistics across cycles."""

    __slots__ = ("cycles",)

    def __init__(self) -> None:
        self.cycles: List[CycleStats] = []

    def record(self, cycle: CycleStats) -> None:
        self.cycles.append(cycle)

    @property
    def num_gc(self) -> int:
        return len(self.cycles)

    @property
    def pause_total_ns(self) -> int:
        return sum(c.pause_ns for c in self.cycles)

    @property
    def max_pause_ns(self) -> int:
        """Largest per-cycle total pause (both STW windows summed)."""
        return max((c.pause_ns for c in self.cycles), default=0)

    @property
    def max_pause_window_ns(self) -> int:
        """Largest single STW window across all cycles.

        This is the number mutators actually experience: under the
        incremental collector each window excludes the concurrent
        marking work, so it sits strictly below the atomic full-cycle
        pause (pinned by ``benchmarks/bench_gc_pauses.py``).
        """
        return max((c.max_pause_window_ns for c in self.cycles), default=0)

    @property
    def total_mark_work(self) -> int:
        return sum(c.mark_work_units for c in self.cycles)

    @property
    def total_mark_clock_ns(self) -> int:
        return sum(c.mark_clock_ns for c in self.cycles)

    @property
    def total_deadlocks_detected(self) -> int:
        return sum(c.deadlocks_detected for c in self.cycles)

    @property
    def total_goroutines_reclaimed(self) -> int:
        return sum(c.goroutines_reclaimed for c in self.cycles)

    def mean_mark_clock_ns(self) -> float:
        if not self.cycles:
            return 0.0
        return self.total_mark_clock_ns / len(self.cycles)

    def gc_cpu_ns(self) -> int:
        """Total CPU time attributed to the collector."""
        return self.pause_total_ns + self.total_mark_clock_ns


def format_gctrace(stats: "GCStats") -> str:
    """Render cycles in the spirit of ``GODEBUG=gctrace=1``.

    One line per cycle::

        gc 3 @0.105s golf(pacer): 12+3 iters/checks, work 845,
        2.1MB -> 0.3MB, 40us pause, 2 deadlocks (1 reclaimed)
    """
    lines = []
    for c in stats.cycles:
        at_s = c.started_at_ns / 1e9
        line = (
            f"gc {c.cycle} @{at_s:.3f}s {c.mode}({c.reason}): "
            f"{c.mark_iterations} iters, {c.liveness_checks} checks, "
            f"work {c.mark_work_units}, "
            f"{c.heap_bytes_before / 1e6:.1f}MB"
            f"->{c.heap_bytes_after / 1e6:.1f}MB, "
            f"{c.pause_ns / 1000:.0f}us pause"
        )
        if c.deadlocks_detected or c.goroutines_reclaimed:
            line += (
                f", {c.deadlocks_detected} deadlocks "
                f"({c.goroutines_reclaimed} reclaimed)"
            )
        lines.append(line)
    return "\n".join(lines)


class MemStats:
    """A point-in-time snapshot in ``runtime.MemStats`` vocabulary."""

    __slots__ = (
        "heap_alloc", "heap_inuse", "heap_objects", "stack_inuse",
        "total_alloc", "num_gc", "pause_total_ns", "gc_cpu_fraction",
        "num_goroutine", "blocked_goroutines",
    )

    def __init__(self, heap_alloc: int, heap_inuse: int, heap_objects: int,
                 stack_inuse: int, total_alloc: int, num_gc: int,
                 pause_total_ns: int, gc_cpu_fraction: float,
                 num_goroutine: int, blocked_goroutines: int):
        self.heap_alloc = heap_alloc
        self.heap_inuse = heap_inuse
        self.heap_objects = heap_objects
        self.stack_inuse = stack_inuse
        self.total_alloc = total_alloc
        self.num_gc = num_gc
        self.pause_total_ns = pause_total_ns
        self.gc_cpu_fraction = gc_cpu_fraction
        self.num_goroutine = num_goroutine
        self.blocked_goroutines = blocked_goroutines

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (
            f"<MemStats heap_alloc={self.heap_alloc} "
            f"heap_objects={self.heap_objects} num_gc={self.num_gc} "
            f"pause_total_ns={self.pause_total_ns} "
            f"goroutines={self.num_goroutine}>"
        )
