"""Configuration for the collector and the GOLF extension."""

from __future__ import annotations

from typing import Callable, Optional

#: Valid collection-cycle execution strategies (see ``docs/GC.md``):
#: ``atomic`` runs the whole cycle inside one blocking call, while
#: ``incremental`` runs the phase machine with scheduler-interleaved
#: MARKING/SWEEPING steps and the Dijkstra write barrier.
GC_MODES = ("atomic", "incremental")

# The collector's pacer and simulated cost model (the scheduler's
# per-instruction cost is ``Scheduler.base_cost_ns``): constants, no
# experiment varies them.

#: Heap-growth trigger percentage (Go's default GOGC): a collection is
#: triggered when the live heap grows past ``(1 + GOGC/100)`` times the
#: live heap after the previous collection.
GOGC = 100

#: Simulated stop-the-world cost per pause (two pauses per cycle, as in
#: Go: mark setup + mark termination).
STW_BASE_NS = 20_000
#: Simulated marking cost per traversed reference.
NS_PER_MARK_EDGE = 25
#: Fixed marking-phase cost per mark iteration (queue setup/drain).
#: GOLF's liveness expansion runs inside the first iteration; the
#: paper's restart fixpoint (the reference) pays one per expansion.
NS_PER_MARK_ITERATION = 1_500
#: Simulated cost of checking one (goroutine, blocking object) pair
#: during root expansion.
NS_PER_LIVENESS_CHECK = 120
#: Simulated STW cost of shutting down one deadlocked goroutine.
NS_PER_RECLAIM = 4_000


class GolfConfig:
    """Tunables for the collector and the GOLF detector.

    Args:
        golf: enable partial deadlock detection (the GOLF extension);
            False gives the baseline collector.
        reclaim: when True, reported deadlocked goroutines are forcefully
            shut down one cycle after detection (paper's recovery mode).
            When False GOLF only monitors, as in the RQ1(b) experiments,
            keeping reported goroutines alive but reporting them once.
        detect_every: run deadlock detection only every Nth GC cycle
            (paper section 6.2 suggests this to amortize overhead; 1 =
            every cycle, as evaluated).
        min_heap_bytes: pacing floor, so tiny programs still collect at a
            sane cadence.
        on_report: optional callback invoked with each new
            :class:`~repro.core.reports.DeadlockReport`.
        dead_global_hints: names of global variables a static analysis
            has proven are never used by any future execution.  The
            detector excludes them from the liveness roots, recovering
            deadlocks behind globally reachable channels (the paper's
            Listing 4 false negative; section 8 future work).  Hints are
            *trusted*: a wrong hint can violate soundness (the runtime
            will raise ``SchedulerError`` if that ever manifests).
            Collection is unaffected — hinted globals stay in memory.
        gc_mode: ``"atomic"`` (one blocking cycle, the original design)
            or ``"incremental"`` (phase machine: STW mark setup →
            concurrent bounded marking with a Dijkstra write barrier →
            STW mark termination → concurrent bounded sweeping).  Both
            modes emit identical leak reports for a fixed
            ``(program, procs, seed)`` — the ``gc_mode`` equivalence pair.
        mark_budget: work units (edges + scan work) drained per
            incremental marking step.
        sweep_budget: objects examined per incremental sweeping step.
    """

    def __init__(
        self,
        golf: bool = True,
        reclaim: bool = True,
        detect_every: int = 1,
        min_heap_bytes: int = 256 * 1024,
        on_report: Optional[Callable[..., None]] = None,
        dead_global_hints: Optional[set] = None,
        gc_mode: str = "atomic",
        mark_budget: int = 256,
        sweep_budget: int = 256,
    ):
        if detect_every < 1:
            raise ValueError("detect_every must be >= 1")
        if gc_mode not in GC_MODES:
            raise ValueError(
                f"gc_mode must be one of {GC_MODES}, got {gc_mode!r}")
        if mark_budget < 1 or sweep_budget < 1:
            raise ValueError("mark_budget and sweep_budget must be >= 1")
        self.golf = golf
        self.reclaim = reclaim
        self.detect_every = detect_every
        self.min_heap_bytes = min_heap_bytes
        self.on_report = on_report
        self.dead_global_hints = frozenset(dead_global_hints or ())
        self.gc_mode = gc_mode
        self.mark_budget = mark_budget
        self.sweep_budget = sweep_budget

    @classmethod
    def baseline(cls, **overrides) -> "GolfConfig":
        """The unmodified Go collector."""
        overrides.setdefault("golf", False)
        overrides.setdefault("reclaim", False)
        return cls(**overrides)

    @classmethod
    def monitor_only(cls, **overrides) -> "GolfConfig":
        """GOLF detection without recovery (paper RQ1(b) configuration)."""
        overrides.setdefault("golf", True)
        overrides.setdefault("reclaim", False)
        return cls(**overrides)

    @property
    def mode(self) -> str:
        return "golf" if self.golf else "baseline"

    @property
    def incremental(self) -> bool:
        return self.gc_mode == "incremental"
