"""The collection cycle: baseline Go GC and the GOLF extension.

The baseline cycle follows the paper's section 5.1: initialization (new
mark epoch, root preparation), marking, mark termination, sweeping.  With
GOLF enabled (section 5.2), the root set starts from runnable goroutines
only, marking alternates with root-set expansion until the reachable
liveness fixpoint, unmarked user-blocked goroutines are reported as
partial deadlocks, and recovery proceeds under the two-cycle finalizer
protocol of :mod:`repro.core.recovery`.

Two execution modes (``GolfConfig.gc_mode``):

- ``atomic`` — the historical implementation: one call to
  :meth:`Collector.collect` performs the entire cycle while the world is
  logically stopped.
- ``incremental`` — the same cycle decomposed into the explicit phase
  machine of :mod:`repro.gc.phases`.  Only the two STW windows
  (MARK_SETUP, MARK_TERMINATION) pause the mutator; MARKING and SWEEPING
  advance in bounded work budgets driven by the scheduler between
  goroutine time slices, with a Dijkstra insertion write barrier
  (:meth:`repro.gc.heap.Heap.write_barrier`) keeping concurrent marking
  sound.  Both modes share the liveness fixpoint
  (:func:`repro.core.detector.expand_liveness_fixpoint`) and the cost
  model below, so they render identical deadlock verdicts and identical
  virtual-time totals on quiescent cycles — the ``gc_mode`` pair of
  :mod:`repro.equivalence`.

Simulated cost model (drives the paper's Table 2 / Figure 4 metrics;
the constants are in :mod:`repro.core.config`):

- *marking clock* = traversed references x ``NS_PER_MARK_EDGE``.  Marking
  runs concurrently with the mutator in Go, so it contributes to GC CPU
  time but not to the pause.
- *pause* = two stop-the-world windows (``STW_BASE_NS`` each) plus, under
  GOLF, the liveness checks and forced shutdowns that run under
  stop-the-world conditions.  The pause advances the virtual clock and
  stalls in-flight instructions.  Incremental mode charges the setup
  window (base + reclaims) and the termination window (base + liveness
  checks) separately; their sum equals the atomic pause.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core import config as cost
from repro.core import detector as detector_mod
from repro.core import masking, recovery
from repro.core.config import GolfConfig
from repro.core.reports import ReportLog
from repro.gc.heap import Heap
from repro.gc.marking import drain_budget, mark_from, push_roots
from repro.gc.phases import GCPhase
from repro.gc.stats import CycleStats, GCStats
from repro.runtime.clock import Clock
from repro.runtime.goroutine import Goroutine, GStatus
from repro.runtime.objects import HeapObject
from repro.runtime.scheduler import Scheduler
from repro.runtime.waitreason import WaitReason

# Enum members the per-event and per-goroutine paths compare against,
# read once (a member read is a Python-level descriptor call on CPython
# 3.11; ``maybe_collect`` and ``gc_step`` are polled on every event).
_IDLE = GCPhase.IDLE
_MARKING = GCPhase.MARKING
_SWEEPING = GCPhase.SWEEPING
_DEAD = GStatus.DEAD


class Collector:
    """Owns GC pacing and executes collection cycles."""

    def __init__(self, heap: Heap, sched: Scheduler, clock: Clock,
                 config: GolfConfig, reports: ReportLog):
        self.heap = heap
        self.sched = sched
        self.clock = clock
        self.config = config
        self.reports = reports
        self.stats = GCStats()
        self._next_target = config.min_heap_bytes
        self._pending_reclaim: List[Goroutine] = []
        # Incremental phase-machine state (quiescent between cycles).
        self.phase = GCPhase.IDLE
        self._gray: List[HeapObject] = []
        self._cycle: Optional[CycleStats] = None
        self._detect_now = False
        self._candidates: List[Goroutine] = []
        self._sweep_list: List[HeapObject] = []
        self._sweep_pos = 0
        self._finalizer_thunks: List[Callable[[], None]] = []
        self._shades_at_setup = 0
        # runtime.GC callers parked until a full cycle completes: the
        # current cycle's waiters, plus those queued for the next one.
        self._gc_waiters: List[Goroutine] = []
        self._queued_waiters: List[Goroutine] = []
        self._gc_requested = False
        #: Optional checkpoint/restart recovery manager (see
        #: :mod:`repro.core.checkpoint`).  When set, condemned goroutines
        #: belonging to a registered subsystem are claimed for rollback
        #: instead of plain reclaim, and pending rollbacks run at cycle
        #: completion via :meth:`~CheckpointManager.process_pending`.
        self.recovery_manager = None
        # Wire the runtime hooks.
        sched.gc_hook = self.collect
        sched.alloc_hook = self.maybe_collect
        if config.golf:
            sched.mask_key = masking.mask_addr
        if config.incremental:
            sched.gc_step_hook = self.gc_step
            sched.gc_request_hook = self.request_gc
            sched.gc_wake_hook = self.on_masked_wake

    # -- pacing -----------------------------------------------------------

    def maybe_collect(self) -> Optional[CycleStats]:
        """Allocation hook: collect when the heap passes the GOGC target."""
        if self.heap.live_bytes >= self._next_target:
            if self.config.incremental:
                # Kick off a cycle; the scheduler's gc_step_hook advances
                # it between time slices.  If one is already in flight,
                # the pacer is satisfied by its completion (the target is
                # recomputed then).
                if self.phase is _IDLE:
                    self._begin_cycle("pacer")
                return None
            return self.collect(reason="pacer")
        return None

    def perturb_pacing(self, factor: float) -> None:
        """Scale the next pacer trigger by ``factor`` (chaos hook).

        ``factor > 1`` delays the next organic collection, ``factor < 1``
        hastens it — perturbing *when* GC runs without touching what a
        cycle does.  GOLF's guarantees must be cadence-independent
        (paper §6.2 runs detection on arbitrary cycles), which the chaos
        suite verifies by fuzzing exactly this knob.
        """
        if factor <= 0:
            raise ValueError("pacing factor must be positive")
        self._next_target = max(
            self.config.min_heap_bytes, int(self._next_target * factor)
        )

    # -- the cycle ----------------------------------------------------------

    def collect(self, reason: str = "forced") -> CycleStats:
        """Run one full collection cycle synchronously.

        In incremental mode this first drives any in-flight cycle to
        completion (its stats are recorded normally), then runs a fresh
        full cycle through the phase machine without yielding to the
        mutator — the synchronous entry point (``rt.gc()``, chaos-forced
        GC) still observes complete-cycle semantics.
        """
        if not self.config.incremental:
            return self._collect_atomic(reason)
        while self.phase is not _IDLE:
            self.gc_step()
        self._begin_cycle(reason)
        cs = self._cycle
        while self.phase is not _IDLE:
            self.gc_step()
        assert cs is not None
        return cs

    def _collect_atomic(self, reason: str) -> CycleStats:
        """The atomic cycle: everything under one logical STW."""
        cycle_no = self.stats.num_gc + 1
        cs = CycleStats(cycle_no, reason, self.config.mode, self.clock.now)
        cs.heap_bytes_before = self.heap.live_bytes
        cs.heap_objects_before = self.heap.live_objects

        detect_now = self._cycle_prologue(cs)
        if detect_now:
            self._golf_cycle(cs)
        else:
            self._baseline_cycle(cs)

        sweep_result, finalizer_thunks = self.heap.sweep()
        cs.swept_objects = sweep_result.freed_objects
        cs.swept_bytes = sweep_result.freed_bytes
        cs.finalizers_queued = sweep_result.finalizers_queued
        for thunk in finalizer_thunks:
            thunk()

        cs.mark_clock_ns = (
            cs.mark_work_units * cost.NS_PER_MARK_EDGE
            + cs.mark_iterations * cost.NS_PER_MARK_ITERATION
        )
        cs.pause_setup_ns = cost.STW_BASE_NS
        cs.pause_termination_ns = cost.STW_BASE_NS
        if detect_now:
            cs.pause_setup_ns += cs.goroutines_reclaimed * cost.NS_PER_RECLAIM
            cs.pause_termination_ns += (
                cs.liveness_checks * cost.NS_PER_LIVENESS_CHECK)
        # Marking runs concurrently with the mutator in Go but still
        # consumes CPU; approximate its mutator impact by spreading the
        # marking clock across the virtual processors.
        mark_stall = cs.mark_clock_ns // max(1, len(self.sched.procs))
        total_stall = cs.pause_ns + mark_stall
        self.clock.advance(total_stall)
        self.sched.stall_all(total_stall)

        self._finish_cycle_stats(cs)
        if self.recovery_manager is not None:
            self.recovery_manager.process_pending()
        return cs

    def _cycle_prologue(self, cs: CycleStats) -> bool:
        """Open a collection cycle under STW, in either gc mode.

        Starts a fresh mark epoch, ages the ``sync.Pool`` caches
        (primary -> victim -> released, as Go does; pools register on
        the heap's aging registry at allocation time), and runs the
        second half of the two-cycle recovery protocol: shut down the
        goroutines reported (and finalizer-cleared) last detection.
        Returns whether this cycle runs GOLF detection.
        """
        self.heap.begin_cycle()
        for obj in self.heap.gc_aged_objects():
            obj.on_gc()  # type: ignore[attr-defined]
        telemetry = self.sched.telemetry
        for g in self._pending_reclaim:
            if telemetry is not None:
                # Before reclaim: the goroutine still carries its sites.
                telemetry.on_reclaim(g)
            self.sched.reclaim_deadlocked(g)
            cs.goroutines_reclaimed += 1
        self._pending_reclaim = []
        return (self.config.golf
                and (cs.cycle - 1) % self.config.detect_every == 0)

    def detect_only(self, reason: str = "daemon") -> Optional[CycleStats]:
        """Run the GOLF liveness fixpoint without collecting.

        The detection daemon's entry point (paper §6.2 argues detection
        is sound on *any* cycle; this decouples it from GC cadence
        entirely): a fresh mark epoch, the full reachable-liveness
        fixpoint over the current candidates, and the shared
        report/recovery path — but no sweep, no pause accounting, and no
        virtual-time charge, so running it between GC cycles never
        perturbs the mutator schedule.  Goroutines condemned here join
        ``_pending_reclaim`` and are freed by the next real cycle (or are
        claimed by checkpoint/restart recovery).

        Returns the detection stats, or ``None`` when skipped because an
        incremental cycle is in flight (its own mark termination will
        render the verdicts; a second concurrent fixpoint would fight
        over mark bits and masks).
        """
        if not self.config.golf:
            return None
        if self.phase is not _IDLE:
            return None
        cs = CycleStats(self.stats.num_gc, reason, self.config.mode,
                        self.clock.now)
        cs.heap_bytes_before = self.heap.live_bytes
        cs.heap_objects_before = self.heap.live_objects
        self.heap.begin_cycle()
        self._golf_cycle(cs)
        cs.heap_bytes_after = self.heap.live_bytes
        cs.heap_objects_after = self.heap.live_objects
        if self.recovery_manager is not None:
            self.recovery_manager.process_pending()
        return cs

    def _baseline_cycle(self, cs: CycleStats) -> None:
        """Regular Go marking: every goroutine is a root."""
        roots = [self.heap.globals] + [
            g for g in self.sched.allgs if g.status is not _DEAD
        ]
        roots.extend(self.sched.inflight_heap_refs())
        work, _ = mark_from(self.heap, roots, respect_masks=False)
        cs.mark_iterations = 1
        cs.mark_work_units = work

    def _golf_cycle(self, cs: CycleStats) -> None:
        """GOLF marking, detection, and the first half of recovery."""
        det = detector_mod.detect(
            self.heap, self.sched.allgs,
            on_the_fly=self.config.on_the_fly_roots,
            dead_global_hints=self.config.dead_global_hints,
            extra_roots=self.sched.inflight_heap_refs(),
        )
        cs.mark_iterations = det.mark_iterations
        cs.mark_work_units = det.mark_work_units
        cs.liveness_checks = det.liveness_checks
        cs.proof_skips = det.proof_skips
        self._conclude_detection(cs, det.deadlocked)

    def _conclude_detection(self, cs: CycleStats,
                            deadlocked: List[Goroutine]) -> None:
        """After the fixpoint, in either gc mode: restore the global
        view, report and start recovery, drop every mask."""
        if self.config.dead_global_hints:
            # Hints affect liveness only, never collection: re-mark the
            # full global view so hinted objects are not swept while the
            # global table still references them.
            extra_work, _ = mark_from(
                self.heap, [self.heap.globals], respect_masks=True)
            cs.mark_work_units += extra_work
        self._report_and_recover(cs, deadlocked)
        masking.unmask_all(self.sched.allgs)

    def _report_and_recover(self, cs: CycleStats,
                            deadlocked: List[Goroutine]) -> None:
        """Report detected partial deadlocks and start recovery.

        Shared by both gc modes: the report log entries, callbacks,
        finalizer keep-alive decision, and PENDING_RECLAIM scheduling are
        byte-for-byte identical regardless of how marking was driven.
        """
        prov_map = {}
        if deadlocked:
            # Capture why-leaked evidence for the whole condemned set
            # *before* recovery marks any exclusive subgraph below: the
            # absence proofs read the post-fixpoint mark bits, which
            # scan_and_mark_subgraph would flip.  Imported here: the kernel
            # loads nothing above it (docs/ARCHITECTURE.md, "Layers").
            from repro.trace.provenance import capture_provenance
            prov_map = capture_provenance(
                deadlocked, self.heap, self.sched, cs.cycle,
                cs.started_at_ns, self.sched.tracer)
        for g in deadlocked:
            # Timestamp with the cycle's start: in atomic mode the clock
            # has not advanced yet at this point, so this is clock.now;
            # in incremental mode the setup window has already elapsed,
            # and anchoring to the start keeps report logs byte-identical
            # across the two modes (the gc_mode equivalence pair checks this).
            report = self.reports.add(g, cs.cycle, cs.started_at_ns)
            report.provenance = prov_map.get(g.goid)
            g.reported = True
            if self.sched.tracer is not None:
                self.sched.tracer.on_leak(report)
            if self.config.on_report is not None:
                self.config.on_report(report)
            cs.deadlocks_detected += 1
            # Schedule the goroutine's memory for marking this cycle and
            # probe the exclusively reachable subgraph for finalizers.
            g.masked = False
            has_finalizer, extra_work, exclusive_bytes = (
                recovery.scan_and_mark_subgraph(self.heap, g)
            )
            cs.mark_work_units += extra_work
            cs.reachable_dead_bytes += exclusive_bytes
            kept = has_finalizer or not self.config.reclaim
            g.wait_seq += 1  # verdict changes the detector classification
            if kept:
                g.status = GStatus.DEADLOCKED
                if has_finalizer:
                    cs.deadlocks_kept_for_finalizers += 1
            else:
                g.status = GStatus.PENDING_RECLAIM
                if (self.recovery_manager is not None
                        and self.recovery_manager.on_condemned(
                            g, report, reason=cs.reason)):
                    # Claimed by checkpoint/restart recovery: the manager
                    # tears the whole subsystem down (this goroutine
                    # included) at cycle completion, so the two-cycle
                    # reclaim must not also free the descriptor.
                    pass
                else:
                    self._pending_reclaim.append(g)
            if self.sched.telemetry is not None:
                self.sched.telemetry.on_leak_report(report, kept=kept)

    def _finish_cycle_stats(self, cs: CycleStats) -> None:
        """Record after-stats, retarget the pacer, and publish the cycle."""
        cs.heap_bytes_after = self.heap.live_bytes
        cs.heap_objects_after = self.heap.live_objects
        self._next_target = max(
            self.config.min_heap_bytes,
            self.heap.live_bytes * (100 + self.config.gogc) // 100,
        )
        self.stats.record(cs)
        if self.sched.tracer is not None:
            self.sched.tracer.on_gc_cycle(cs)
        if self.sched.telemetry is not None:
            self.sched.telemetry.on_gc_cycle(cs, self.sched, self.heap)

    # -- incremental phase machine ----------------------------------------

    def _transition(self, phase: GCPhase) -> None:
        self.phase = phase
        cycle_no = self._cycle.cycle if self._cycle is not None else 0
        if self.sched.tracer is not None:
            self.sched.tracer.on_gc_phase(phase.value, cycle_no)
        telemetry = self.sched.telemetry
        if telemetry is not None:
            telemetry.on_gc_phase(phase.value, cycle_no)

    def _begin_cycle(self, reason: str) -> None:
        """MARK_SETUP: the first STW window of an incremental cycle.

        Ages pools, runs pending reclaims, snapshots the detection
        candidates and masks them, shades the root set gray, and arms the
        write barrier before handing the world back to the mutator.
        """
        assert self.phase is _IDLE, self.phase
        cycle_no = self.stats.num_gc + 1
        cs = CycleStats(cycle_no, reason, self.config.mode, self.clock.now)
        cs.heap_bytes_before = self.heap.live_bytes
        cs.heap_objects_before = self.heap.live_objects
        self._cycle = cs
        self._transition(GCPhase.MARK_SETUP)

        self._detect_now = self._cycle_prologue(cs)
        self._gray = []
        self._shades_at_setup = self.heap.barrier_shades
        if self._detect_now:
            # Candidates are snapshotted under STW: goroutines that block
            # detectably *after* setup were woken-then-blocked by live
            # mutators and are shaded by the barrier/rescan instead.
            roots, self._candidates, cs.proof_skips = (
                detector_mod.seed_roots(self.heap, self.sched.allgs,
                                        self.config.dead_global_hints))
        else:
            self._candidates = []
            roots = [self.heap.globals] + [
                g for g in self.sched.allgs if g.status is not _DEAD
            ]
        roots.extend(self.sched.inflight_heap_refs())
        work, _ = push_roots(self.heap, roots, self._gray,
                             respect_masks=self._detect_now)
        cs.mark_iterations = 1
        cs.mark_work_units += work
        self.heap.enable_barrier(self._gray)

        pause = cost.STW_BASE_NS
        if self._detect_now:
            # Reclaims are a detection-cycle cost in the atomic model;
            # charge them identically so pause totals line up.
            pause += cs.goroutines_reclaimed * cost.NS_PER_RECLAIM
        cs.pause_setup_ns = pause
        self.clock.advance(pause)
        self.sched.stall_all(pause)
        self._transition(GCPhase.MARKING)

    def gc_step(self) -> bool:
        """Advance the in-flight cycle by one bounded unit of work.

        Called by the scheduler between goroutine time slices (and by
        :meth:`collect` to drive a cycle synchronously).  Returns True
        while a cycle remains in flight.  Steps consume no virtual time:
        marking/sweeping CPU cost is charged as the termination-window
        mark stall, exactly as in atomic mode, keeping the two modes'
        clocks in lockstep.
        """
        if self.phase is _MARKING:
            cs = self._cycle
            assert cs is not None
            cs.mark_steps += 1
            work, _ = drain_budget(
                self.heap, self._gray, self.config.mark_budget,
                respect_masks=self._detect_now)
            cs.mark_work_units += work
            if not self._gray:
                self._mark_termination()
        elif self.phase is _SWEEPING:
            self._sweep_step()
        return self.phase is not _IDLE

    def _mark_termination(self) -> None:
        """MARK_TERMINATION: the second STW window.

        Rescans barrier-less roots (goroutine stacks, in-flight
        instruction operands), runs the liveness fixpoint and
        report/recovery when this is a detection cycle, charges the
        termination pause plus the spread marking clock, and freezes the
        sweep candidate list.
        """
        cs = self._cycle
        assert cs is not None
        self._transition(GCPhase.MARK_TERMINATION)
        self.heap.disable_barrier()

        # Goroutine stacks carry no write barrier (Go re-examines stacks
        # at mark termination): re-traverse every unmasked live
        # goroutine's stack and the operands in flight on virtual
        # processors, catching stores the concurrent phase missed.
        # Charged to rescan_work_units, not the marking clock — Go does
        # this inside the termination window, and keeping it off the
        # clock preserves virtual-time parity with atomic mode.
        rescan_roots: List[HeapObject] = []
        for g in self.sched.allgs:
            if g.status is _DEAD or g.masked:
                continue
            rescan_roots.extend(g.stack_heap_refs())
        rescan_roots.extend(self.sched.inflight_heap_refs())
        rescan_work, _ = mark_from(
            self.heap, rescan_roots, respect_masks=self._detect_now)
        cs.rescan_work_units += rescan_work

        if self._detect_now:
            det = detector_mod.DetectionResult()
            pending = [g for g in self._candidates if g.masked]
            deadlocked = detector_mod.expand_liveness_fixpoint(
                self.heap, pending, det)
            cs.mark_iterations += det.mark_iterations
            cs.mark_work_units += det.mark_work_units
            cs.liveness_checks += det.liveness_checks
            self._conclude_detection(cs, deadlocked)
        self._candidates = []

        cs.mark_clock_ns = (
            cs.mark_work_units * cost.NS_PER_MARK_EDGE
            + cs.mark_iterations * cost.NS_PER_MARK_ITERATION
        )
        pause = cost.STW_BASE_NS
        if self._detect_now:
            pause += cs.liveness_checks * cost.NS_PER_LIVENESS_CHECK
        cs.pause_termination_ns = pause
        mark_stall = cs.mark_clock_ns // max(1, len(self.sched.procs))
        total_stall = pause + mark_stall
        self.clock.advance(total_stall)
        self.sched.stall_all(total_stall)

        # Freeze the sweep candidate list under STW: everything still
        # white is unreachable now and cannot be resurrected (allocation
        # is black until the next cycle's epoch bump), so sweeping it
        # lazily is safe.
        self._sweep_list = [
            obj for obj in self.heap.objects()
            if not self.heap.is_marked(obj) and not self.heap.is_pinned(obj)
        ]
        self._sweep_pos = 0
        self._finalizer_thunks = []
        self._transition(GCPhase.SWEEPING)

    def _sweep_step(self) -> None:
        """One bounded SWEEPING step over the frozen candidate list."""
        cs = self._cycle
        assert cs is not None
        cs.sweep_steps += 1
        budget = self.config.sweep_budget
        examined = 0
        while self._sweep_pos < len(self._sweep_list) and examined < budget:
            obj = self._sweep_list[self._sweep_pos]
            self._sweep_pos += 1
            examined += 1
            freed, freed_bytes, thunk = self.heap.sweep_one(obj)
            if freed:
                cs.swept_objects += 1
                cs.swept_bytes += freed_bytes
            elif thunk is not None:
                cs.finalizers_queued += 1
                self._finalizer_thunks.append(thunk)
        if self._sweep_pos >= len(self._sweep_list):
            self._complete_cycle()

    def _complete_cycle(self) -> None:
        """Sweep done: run finalizers, publish stats, wake RunGC waiters."""
        cs = self._cycle
        assert cs is not None
        for thunk in self._finalizer_thunks:
            thunk()
        self._finalizer_thunks = []
        self._sweep_list = []
        self._sweep_pos = 0
        cs.barrier_shades = self.heap.barrier_shades - self._shades_at_setup
        self._finish_cycle_stats(cs)
        self._transition(GCPhase.IDLE)
        self._cycle = None
        if self.recovery_manager is not None:
            self.recovery_manager.process_pending()

        waiters, self._gc_waiters = self._gc_waiters, []
        for g in waiters:
            # Guard against chaos panics or reclaims having moved the
            # waiter on: only wake goroutines still parked on this cycle.
            if (g.status is GStatus.WAITING
                    and g.wait_reason is WaitReason.GC_WAIT):
                self.sched.wake(g)
        if self._gc_requested or self._queued_waiters:
            self._gc_requested = False
            self._gc_waiters = self._queued_waiters
            self._queued_waiters = []
            self._begin_cycle("runtime.GC")

    def request_gc(self, g: Goroutine) -> bool:
        """``runtime.GC()`` in incremental mode.

        Returns True when the caller was enrolled as a cycle waiter (the
        executor parks it with ``WaitReason.GC_WAIT`` until the cycle
        completes — Go's "wait for GC cycle"); False in atomic mode, where
        the executor falls back to the blocking ``gc_hook``.  A request
        arriving while a cycle is in flight waits for the *next* full
        cycle: ``runtime.GC`` must observe a complete mark from its call
        point.
        """
        if not self.config.incremental:
            return False
        if self.phase is _IDLE:
            self._gc_waiters.append(g)
            self._begin_cycle("runtime.GC")
        else:
            self._gc_requested = True
            self._queued_waiters.append(g)
        return True

    def on_masked_wake(self, g: Goroutine) -> None:
        """Scheduler hook: a masked candidate is being woken mid-cycle.

        While a detection cycle is concurrently marking, a live goroutine
        may complete the operation a candidate blocks on; the wake itself
        proves liveness, so the candidate rejoins the root set (GOLF root
        re-expansion).  Outside MARKING the mask is simply dropped — the
        fixpoint owning it has already concluded or not yet begun.
        """
        if (self.phase is _MARKING and self._detect_now
                and self._cycle is not None):
            detector_mod.reexpand_on_wake(self.heap, g, self._gray)
            self._cycle.root_reexpansions += 1
        else:
            g.masked = False

    def check_barrier_invariant(self) -> List[str]:
        """Verify the tricolor invariant during concurrent marking.

        During MARKING every black object (marked and not on the gray
        queue) must have no white heap referent — each referent is
        marked, a masked goroutine descriptor (liveness flows only via
        the detector's fixpoint), or off-heap.  Goroutine descriptors are
        exempt: their stacks mutate without a barrier and are rescanned
        at mark termination.  Returns human-readable violations; empty
        when sound.  The chaos harness calls this after every injected
        fault.
        """
        problems: List[str] = []
        if self.phase is not _MARKING:
            return problems
        gray_ids = {id(o) for o in self._gray}
        for obj in self.heap.objects():
            if not self.heap.is_marked(obj) or id(obj) in gray_ids:
                continue
            if obj.kind == "goroutine":
                continue
            for ref in obj.referents():
                if ref.kind == "goroutine" and getattr(ref, "masked", False):
                    continue
                if not self.heap.contains(ref):
                    continue
                if not self.heap.is_marked(ref):
                    problems.append(
                        f"barrier invariant: black {obj.kind} "
                        f"0x{obj.addr:x} -> white {ref.kind} "
                        f"0x{ref.addr:x}")
        return problems
