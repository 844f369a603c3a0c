"""Tests for the incremental collector: phase machine, write barrier,
allocate-black, mid-cycle wakes, and recovery protocols under
scheduler-interleaved collection (see docs/GC.md)."""

import pytest

from repro import GolfConfig, Runtime
from repro.equivalence import PAIRS, Leg, corpus, sweep
from repro.gc import GCPhase
from repro.runtime.clock import MICROSECOND, MILLISECOND
from repro.runtime.goroutine import GStatus
from repro.runtime.instructions import (
    Alloc,
    Go,
    MakeChan,
    Recv,
    RunGC,
    Send,
    SetFinalizer,
    Sleep,
)
from repro.runtime.objects import Blob, Box, GoMap, Slice, Struct
from repro.runtime.waitreason import WaitReason
from tests.conftest import run_to_end


def incremental_rt(procs=2, seed=7, **kwargs):
    kwargs.setdefault("gc_mode", "incremental")
    return Runtime(procs=procs, seed=seed, config=GolfConfig(**kwargs))


def drive_cycle(rt):
    """Step an in-flight cycle to completion without the scheduler."""
    while rt.collector.gc_step():
        pass


def record_phases(rt, phases):
    """Wrap the collector's phase switch to log every transition."""
    original = rt.collector._transition

    def wrapped(phase):
        phases.append(phase)
        original(phase)

    rt.collector._transition = wrapped


def _leak_one(rt, payload_bytes=0):
    def main():
        ch = yield MakeChan(0)

        def sender():
            if payload_bytes:
                data = yield Alloc(Blob(payload_bytes))  # noqa: F841
            yield Send(ch, 1)

        yield Go(sender, name="leaker")
        yield Sleep(20 * MICROSECOND)

    return run_to_end(rt, main)


class TestPhaseMachine:
    def test_idle_at_rest(self):
        rt = incremental_rt()
        assert rt.collector.phase is GCPhase.IDLE

    def test_full_cycle_transition_order(self):
        rt = incremental_rt()
        phases = []
        record_phases(rt, phases)
        rt.gc()
        assert phases == [
            GCPhase.MARK_SETUP,
            GCPhase.MARKING,
            GCPhase.MARK_TERMINATION,
            GCPhase.SWEEPING,
            GCPhase.IDLE,
        ]
        assert rt.collector.phase is GCPhase.IDLE

    def test_stw_phases(self):
        assert GCPhase.MARK_SETUP.stop_the_world
        assert GCPhase.MARK_TERMINATION.stop_the_world
        assert not GCPhase.MARKING.stop_the_world
        assert not GCPhase.SWEEPING.stop_the_world
        assert not GCPhase.IDLE.stop_the_world

    def test_tiny_budgets_fragment_the_phases(self):
        rt = incremental_rt(mark_budget=2, sweep_budget=2)

        def main():
            # Live linked data (mark work) plus dropped garbage (sweep
            # work), so both concurrent phases need several steps.
            sl = yield Alloc(Slice())
            for i in range(20):
                box = yield Alloc(Box(i))
                sl.append(box)
            for _ in range(20):
                yield Alloc(Blob(64))
            yield RunGC()
            sl.append(None)  # keep the slice live across the cycle

        assert run_to_end(rt, main) == "main-exited"
        cs = rt.collector.stats.cycles[-1]
        assert cs.mark_steps > 1
        assert cs.sweep_steps > 1

    def test_atomic_mode_has_no_steps(self, rt):
        _leak_one(rt)
        cs = rt.gc()
        assert cs.mark_steps == 0
        assert cs.sweep_steps == 0
        assert rt.collector.phase is GCPhase.IDLE

    def test_forced_gc_while_cycle_in_flight_runs_both(self):
        rt = incremental_rt()
        rt.collector._begin_cycle("test")
        assert rt.collector.phase is GCPhase.MARKING
        cs = rt.gc()  # must finish the in-flight cycle, then run its own
        assert rt.collector.phase is GCPhase.IDLE
        assert cs.cycle == 2
        assert rt.collector.stats.num_gc == 2


class TestRunGCParking:
    def test_rungc_parks_caller_until_cycle_completes(self):
        rt = incremental_rt(mark_budget=1)
        observed = []

        def main():
            for _ in range(10):
                yield Alloc(Blob(64))
            yield RunGC()

        rt.spawn_main(main)
        main_g = rt.sched.main_g
        record_phases(rt, observed)
        original = rt.collector._transition

        def snapshot(phase):
            if phase is GCPhase.MARK_TERMINATION:
                observed.append((main_g.status, main_g.wait_reason))
            original(phase)

        rt.collector._transition = snapshot
        outcome = rt.run(until_ns=500 * MILLISECOND)
        assert outcome == "main-exited"
        assert (GStatus.WAITING, WaitReason.GC_WAIT) in observed
        assert main_g.status is GStatus.DEAD

    def test_mutator_progresses_during_marking(self):
        rt = incremental_rt(mark_budget=1, sweep_budget=1)
        progress = []
        marking_snapshot = []

        def main():
            sl = yield Alloc(Slice())
            for i in range(30):
                box = yield Alloc(Box(i))
                sl.append(box)

            def worker():
                # CPU-busy so it stays runnable: the scheduler then
                # interleaves one bounded GC step per execution batch.
                for i in range(200):
                    progress.append(i)
                    yield Alloc(Blob(8))

            yield Go(worker, name="worker")
            yield Sleep(MICROSECOND)
            yield RunGC()
            sl.append(None)  # keep the slice live across the cycle

        rt.spawn_main(main)
        original = rt.collector._transition

        def snapshot(phase):
            if phase is GCPhase.MARKING:
                marking_snapshot.append(len(progress))
            elif phase is GCPhase.MARK_TERMINATION:
                marking_snapshot.append(len(progress))
            original(phase)

        rt.collector._transition = snapshot
        assert run_to_end_spawned(rt) == "main-exited"
        at_marking, at_termination = marking_snapshot[0], marking_snapshot[1]
        assert at_termination > at_marking, (
            "the worker must run between MARKING and MARK_TERMINATION")


    def test_rungc_cycles_are_stamped_alike_in_both_modes(self):
        """``runtime.GC()`` cycles carry one reason whatever the collector
        mode: consumers filter on it (``experiments/complexity.py``, the
        ``repro_gc_cycles_total{reason=...}`` series, the gctrace line)."""
        def stamps(gc_mode):
            rt = Runtime(procs=2, seed=7, config=GolfConfig(gc_mode=gc_mode))

            def main():
                for _ in range(3):
                    yield Alloc(Blob(64))
                    yield RunGC()

            assert run_to_end(rt, main) == "main-exited"
            return [(c.cycle, c.reason) for c in rt.collector.stats.cycles]

        assert stamps("atomic") == stamps("incremental") == [
            (1, "runtime.GC"), (2, "runtime.GC"), (3, "runtime.GC")]

    def test_queued_rungc_cycle_is_stamped_runtime_gc(self):
        """A request arriving mid-cycle gets the *next* cycle, which is
        just as much a ``runtime.GC`` cycle as the first."""
        rt = incremental_rt(mark_budget=1, sweep_budget=1)
        idle_at_request = []
        original = rt.sched.gc_request_hook

        def request(g):
            idle_at_request.append(rt.collector.phase is GCPhase.IDLE)
            return original(g)

        rt.sched.gc_request_hook = request

        def main():
            sl = yield Alloc(Slice())
            for i in range(30):  # enough heap for a many-step cycle
                sl.append((yield Alloc(Box(i))))

            def second():
                yield RunGC()

            yield Go(second, name="second")
            yield Sleep(MICROSECOND)
            yield RunGC()  # lands while second's cycle is in flight
            sl.append(None)  # keep the slice live across the cycles

        assert run_to_end(rt, main) == "main-exited"
        assert idle_at_request == [True, False]  # the second one queued
        assert [(c.cycle, c.reason) for c in rt.collector.stats.cycles] == [
            (1, "runtime.GC"), (2, "runtime.GC")]


def run_to_end_spawned(rt):
    return rt.run(until_ns=500 * MILLISECOND, max_instructions=2_000_000)


class TestWriteBarrier:
    def _mid_mark(self, **kwargs):
        rt = incremental_rt(**kwargs)
        targets = [rt.heap.allocate(Blob(32)) for _ in range(6)]
        rt.collector._begin_cycle("test")
        assert rt.collector.phase is GCPhase.MARKING
        assert rt.heap.barrier_active
        for t in targets:
            assert not rt.heap.is_marked(t)
        return rt, targets

    def test_box_store_shades(self):
        rt, targets = self._mid_mark()
        box = rt.heap.allocate(Box(None))
        before = rt.heap.barrier_shades
        box.value = targets[0]
        assert rt.heap.is_marked(targets[0])
        assert rt.heap.barrier_shades == before + 1

    def test_struct_field_store_shades(self):
        rt, targets = self._mid_mark()
        s = rt.heap.allocate(Struct(field=None))
        s.set("field", targets[0])
        s["other"] = targets[1]
        assert rt.heap.is_marked(targets[0])
        assert rt.heap.is_marked(targets[1])

    def test_slice_store_shades(self):
        rt, targets = self._mid_mark()
        sl = rt.heap.allocate(Slice([None]))
        sl.append(targets[0])
        sl[0] = targets[1]
        assert rt.heap.is_marked(targets[0])
        assert rt.heap.is_marked(targets[1])

    def test_map_store_shades_key_and_value(self):
        rt, targets = self._mid_mark()
        m = rt.heap.allocate(GoMap())
        m[targets[0]] = targets[1]
        assert rt.heap.is_marked(targets[0])
        assert rt.heap.is_marked(targets[1])

    def test_global_root_store_shades(self):
        rt, targets = self._mid_mark()
        rt.heap.globals.set("g", targets[0])
        assert rt.heap.is_marked(targets[0])

    def test_shaded_object_survives_the_sweep(self):
        rt, targets = self._mid_mark()
        box = rt.heap.allocate(Box(None))
        box.value = targets[0]
        drive_cycle(rt)
        assert rt.heap.contains(targets[0])
        # The other, never-referenced blobs were garbage.
        assert not rt.heap.contains(targets[1])

    def test_barrier_inert_outside_marking(self):
        rt = incremental_rt()
        target = rt.heap.allocate(Blob(32))
        box = rt.heap.allocate(Box(None))
        box.value = target
        assert rt.heap.barrier_shades == 0
        assert not rt.heap.is_marked(target)

    def test_atomic_mode_never_activates_barrier(self, rt):
        _leak_one(rt)
        rt.gc()
        assert rt.heap.barrier_shades == 0

    def test_allocate_black_during_marking(self):
        rt, _ = self._mid_mark()
        fresh = rt.heap.allocate(Blob(16))
        assert rt.heap.is_marked(fresh)
        drive_cycle(rt)
        assert rt.heap.contains(fresh)

    def test_masked_goroutine_is_never_shaded(self):
        rt = incremental_rt()
        _leak_one(rt)
        rt.collector._begin_cycle("test")
        masked = [g for g in rt.sched.allgs if g.masked]
        assert masked, "the leaked sender must be masked during detection"
        leaker = masked[0]
        before = rt.heap.barrier_shades
        # A mutator publishing the masked goroutine's address must not
        # resurrect it: liveness may flow to masked goroutines only via
        # the detector's B(g) fixpoint.
        rt.heap.write_barrier(None, leaker)
        assert not rt.heap.is_marked(leaker)
        assert rt.heap.barrier_shades == before
        drive_cycle(rt)
        assert rt.reports.total() == 1

    def test_cycle_stats_count_shades(self):
        rt, targets = self._mid_mark()
        box = rt.heap.allocate(Box(None))
        box.value = targets[0]
        drive_cycle(rt)
        assert rt.collector.stats.cycles[-1].barrier_shades == 1


class TestBarrierInvariantChecker:
    def test_clean_heap_has_no_violations(self):
        rt = incremental_rt()
        rt.heap.globals.set("g", rt.heap.allocate(Box("x")))
        rt.collector._begin_cycle("test")
        assert rt.collector.check_barrier_invariant() == []

    def test_detects_black_to_white_edge(self):
        rt = incremental_rt()
        child = rt.heap.allocate(Blob(8))
        parent = rt.heap.allocate(Box(None))
        rt.collector._begin_cycle("test")
        # Bypass the barrier to fabricate the forbidden edge: a black
        # (marked, off the gray list) object pointing at a white child.
        parent._value = child
        rt.heap.mark(parent)
        problems = rt.collector.check_barrier_invariant()
        assert problems and "barrier invariant" in problems[0]

    def test_silent_outside_marking(self):
        rt = incremental_rt()
        assert rt.collector.check_barrier_invariant() == []


class TestMidCycleWake:
    def test_masked_wake_reexpands_roots(self):
        rt = incremental_rt()
        _leak_one(rt)
        rt.collector._begin_cycle("test")
        leaker = next(g for g in rt.sched.allgs if g.masked)
        rt.collector.on_masked_wake(leaker)
        assert not leaker.masked
        assert rt.heap.is_marked(leaker)
        drive_cycle(rt)
        cs = rt.collector.stats.cycles[-1]
        assert cs.root_reexpansions == 1
        # The woken goroutine is live again: no report, no recovery.
        assert rt.reports.total() == 0
        assert cs.deadlocks_detected == 0

    def test_unmask_without_cycle_is_plain(self):
        rt = incremental_rt()
        _leak_one(rt)
        # Outside any cycle the hook just clears the mask bit.
        g = rt.sched.allgs[-1]
        g.masked = True
        rt.collector.on_masked_wake(g)
        assert not g.masked
        assert not rt.heap.is_marked(g)


class TestIncrementalRecoveryProtocols:
    def test_two_cycle_recovery_with_interleaved_mutator(self):
        rt = incremental_rt(mark_budget=1, sweep_budget=1)
        progress = []
        marks = []

        def main():
            def parent():
                # The channel dies with this goroutine, leaving the
                # sender unreachable — the Listing-1 leak shape.
                ch = yield MakeChan(0)

                def sender():
                    data = yield Alloc(Blob(4096))  # noqa: F841
                    yield Send(ch, 1)

                yield Go(sender, name="leaker")

            def worker():
                for i in range(400):
                    progress.append(i)
                    yield Sleep(MICROSECOND)

            yield Go(parent, name="parent")
            yield Go(worker, name="worker")
            yield Sleep(20 * MICROSECOND)
            yield RunGC()
            marks.append(len(progress))
            yield RunGC()
            marks.append(len(progress))

        assert run_to_end(rt, main) == "main-exited"
        assert marks[1] > marks[0], "mutator must run between cycles"
        cycles = rt.collector.stats.cycles
        detect = next(c for c in cycles if c.deadlocks_detected)
        reclaim = next(c for c in cycles if c.goroutines_reclaimed)
        assert detect.goroutines_reclaimed == 0
        assert reclaim.cycle > detect.cycle
        assert rt.reports.total() == 1
        assert not any(o.kind == "blob" for o in rt.heap.objects())
        assert rt.sched.gfree, "reclaimed descriptor should be pooled"
        assert rt.sched.gfree[-1].status == GStatus.DEAD

    def test_pending_reclaim_memory_survives_first_cycle(self):
        rt = incremental_rt(mark_budget=2, sweep_budget=2)
        _leak_one(rt, payload_bytes=4096)
        cs1 = rt.gc()
        assert cs1.deadlocks_detected == 1
        assert cs1.goroutines_reclaimed == 0
        assert any(o.kind == "blob" for o in rt.heap.objects())
        cs2 = rt.gc()
        assert cs2.goroutines_reclaimed == 1
        assert not any(o.kind == "blob" for o in rt.heap.objects())

    def test_finalizer_resurrection_under_incremental(self):
        rt = incremental_rt(mark_budget=2, sweep_budget=2)
        fired = []

        def main():
            ch = yield MakeChan(0)

            def holder():
                box = yield Alloc(Box("data"))
                yield SetFinalizer(box, lambda obj: fired.append(obj))
                yield Recv(ch)

            yield Go(holder, name="finalizer-holder")
            yield Sleep(20 * MICROSECOND)

        run_to_end(rt, main)
        cs1 = rt.gc()
        assert cs1.deadlocks_kept_for_finalizers == 1
        rt.gc()
        rt.gc()
        # Kept alive forever: reported once, never reclaimed, finalizer
        # never fires — identical to the atomic protocol.
        assert rt.reports.total() == 1
        assert not fired
        kept = [g for g in rt.sched.allgs if g.status is GStatus.DEADLOCKED]
        assert len(kept) == 1
        assert any(o.kind == "box" for o in rt.heap.objects())

    def test_dead_finalizer_object_resurrected_one_cycle(self):
        rt = incremental_rt(mark_budget=2, sweep_budget=2)
        fired = []

        def main():
            box = yield Alloc(Box("transient"))
            yield SetFinalizer(box, lambda obj: fired.append(obj))

        run_to_end(rt, main)
        cs1 = rt.gc()
        assert cs1.finalizers_queued == 1
        assert len(fired) == 1
        # Resurrected for exactly one cycle, then truly collected.
        assert any(o.kind == "box" for o in rt.heap.objects())
        rt.gc()
        assert not any(o.kind == "box" for o in rt.heap.objects())


class TestPauseAccounting:
    def test_pause_ns_is_setup_plus_termination(self):
        rt = incremental_rt()
        _leak_one(rt)
        cs = rt.gc()
        assert cs.pause_ns == cs.pause_setup_ns + cs.pause_termination_ns
        assert cs.max_pause_window_ns == max(cs.pause_setup_ns,
                                             cs.pause_termination_ns)
        assert cs.max_pause_window_ns < cs.pause_ns

    def test_gcstats_max_pause_tracking(self):
        rt = incremental_rt()
        _leak_one(rt)
        rt.gc()
        rt.gc()
        stats = rt.collector.stats
        assert stats.max_pause_ns == max(c.pause_ns for c in stats.cycles)
        assert stats.max_pause_window_ns == max(
            c.max_pause_window_ns for c in stats.cycles)

    def test_atomic_mode_splits_match_totals(self, rt):
        _leak_one(rt)
        cs = rt.gc()
        assert cs.pause_ns == cs.pause_setup_ns + cs.pause_termination_ns


class TestIncrementalChaosSmoke:
    def test_gc_phase_scenario_clean(self):
        from repro.chaos import run_chaos_campaign

        report = run_chaos_campaign(
            seeds=5, scenario="gc-phase", base_seed=3, procs=2,
            config=GolfConfig(gc_mode="incremental"))
        assert report.clean, report.format()

    def test_gc_specific_faults_rejected_in_atomic(self):
        from repro.chaos import run_chaos_campaign

        report = run_chaos_campaign(
            seeds=5, scenario="gc-phase", base_seed=3, procs=2,
            config=GolfConfig(gc_mode="atomic"))
        assert report.clean, report.format()


class TestNonDetectionCycles:
    """A cycle that runs no detection — every cycle under ``golf=False``,
    every other one under ``detect_every=2`` — marks from all live
    goroutines instead of the GOLF root set.  Same harness, same
    fingerprint and same reference (the atomic collector) as the
    ``gc_mode`` pair of tests/test_gc_equivalence.py; the registry
    programs run three cycles each, so both kinds of cycle occur."""

    @pytest.mark.parametrize("overrides", [{"golf": False},
                                           {"detect_every": 2}],
                             ids=["golf-off", "detect-every-2"])
    def test_registry_equivalent_to_atomic(self, overrides):
        pair = PAIRS["gc_mode"]._replace(
            leg_a=Leg("atomic",
                      lambda: GolfConfig(gc_mode="atomic", **overrides)),
            leg_b=Leg("incremental",
                      lambda: GolfConfig(gc_mode="incremental", **overrides)))
        result = sweep(pair, procs=2, seed=7)
        assert result.clean, "\n" + result.format()
        assert result.runs == len(corpus())
        assert result.witness["mark_steps"] >= 2 * result.runs
