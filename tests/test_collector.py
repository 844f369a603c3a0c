"""Tests for the collection cycle: baseline, GOLF, recovery, pacing."""

import pytest

from repro import GolfConfig, Runtime
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
from repro.runtime.objects import Blob, Box
from tests.conftest import run_to_end


def _leak_one(rt, payload_bytes=0):
    """Run a program that leaks exactly one sender goroutine."""
    def main():
        ch = yield MakeChan(0)

        def sender():
            if payload_bytes:
                data = yield Alloc(Blob(payload_bytes))
            yield Send(ch, 1)

        yield Go(sender, name="leaker")
        yield Sleep(20 * MICROSECOND)

    return run_to_end(rt, main)


class TestBaselineCycle:
    def test_collects_garbage(self, baseline_rt):
        def main():
            for _ in range(5):
                yield Alloc(Blob(1000))  # dropped immediately

        run_to_end(baseline_rt, main)
        before = baseline_rt.heap.live_bytes
        cs = baseline_rt.gc()
        assert cs.swept_bytes >= 5000
        assert baseline_rt.heap.live_bytes < before

    def test_never_reports_deadlocks(self, baseline_rt):
        _leak_one(baseline_rt)
        baseline_rt.gc()
        baseline_rt.gc()
        assert baseline_rt.reports.total() == 0

    def test_leaked_memory_retained(self, baseline_rt):
        _leak_one(baseline_rt, payload_bytes=4096)
        baseline_rt.gc()
        baseline_rt.gc()
        blobs = [o for o in baseline_rt.heap.objects() if o.kind == "blob"]
        assert blobs, "baseline GC must keep leaked goroutine memory"

    def test_single_mark_iteration(self, baseline_rt):
        _leak_one(baseline_rt)
        cs = baseline_rt.gc()
        assert cs.mark_iterations == 1
        assert cs.mode == "baseline"


class TestGolfCycle:
    def test_detects_and_reports(self, rt):
        _leak_one(rt)
        cs = rt.gc()
        assert cs.deadlocks_detected == 1
        assert rt.reports.total() == 1
        report = rt.reports.reports[0]
        assert report.label == "leaker"
        assert report.wait_reason == "chan send"

    def test_two_cycle_recovery(self, rt):
        _leak_one(rt, payload_bytes=4096)
        cs1 = rt.gc()
        assert cs1.deadlocks_detected == 1
        assert cs1.goroutines_reclaimed == 0
        # First cycle must keep the memory alive (scheduled for marking).
        assert any(o.kind == "blob" for o in rt.heap.objects())

        cs2 = rt.gc()
        assert cs2.goroutines_reclaimed == 1
        assert not any(o.kind == "blob" for o in rt.heap.objects())

    def test_reported_goroutine_not_reported_twice(self, rt):
        config = GolfConfig.monitor_only()
        rt = Runtime(procs=2, seed=7, config=config)
        _leak_one(rt)
        rt.gc()
        rt.gc()
        rt.gc()
        assert rt.reports.total() == 1

    def test_monitor_only_keeps_goroutine(self):
        rt = Runtime(procs=2, seed=7, config=GolfConfig.monitor_only())
        _leak_one(rt, payload_bytes=2048)
        rt.gc()
        rt.gc()
        kept = [g for g in rt.sched.allgs if g.status == GStatus.DEADLOCKED]
        assert len(kept) == 1
        assert any(o.kind == "blob" for o in rt.heap.objects())

    def test_reclaimed_goroutine_descriptor_reused(self, rt):
        _leak_one(rt)
        rt.gc()
        rt.gc()
        assert rt.sched.gfree, "reclaimed descriptor should be pooled"
        g = rt.sched.gfree[-1]
        assert g.status == GStatus.DEAD
        assert not g.sudogs and g.blocked_on == ()
        assert g.gen is None

    def test_sematable_purged_on_reclaim(self, rt):
        from repro.runtime.instructions import Lock, NewMutex

        def main():
            mu = yield NewMutex()
            yield Lock(mu)

            def contender():
                yield Lock(mu)

            yield Go(contender, name="mutex-leaker")
            yield Sleep(20 * MICROSECOND)
            # main returns still holding mu: contender deadlocks

        run_to_end(rt, main)
        rt.gc()
        rt.gc()
        assert len(rt.sched.semtable) == 0
        assert rt.reports.total() == 1

    def test_on_report_callback(self):
        seen = []
        config = GolfConfig(on_report=seen.append)
        rt = Runtime(procs=2, seed=7, config=config)
        _leak_one(rt)
        rt.gc()
        assert len(seen) == 1 and seen[0].label == "leaker"

    def test_detect_every_n(self):
        config = GolfConfig(detect_every=3)
        rt = Runtime(procs=2, seed=7, config=config)
        _leak_one(rt)
        cs1 = rt.gc()  # cycle 1: detection runs
        assert cs1.deadlocks_detected == 1
        rt2 = Runtime(procs=2, seed=7, config=GolfConfig(detect_every=3))
        _leak_one(rt2)
        # Force the cycle counter past the detection cycle first.
        rt2.collector.collect()  # 1: detects
        assert rt2.reports.total() == 1

    def test_detect_every_skips_intermediate_cycles(self):
        config = GolfConfig(detect_every=3)
        rt = Runtime(procs=2, seed=7, config=config)

        def main():
            yield Sleep(MICROSECOND)

        run_to_end(rt, main)
        modes = [rt.gc().mark_iterations for _ in range(6)]
        cycles = rt.collector.stats.cycles
        golf_cycles = [c for c in cycles if c.mode == "golf"]
        # detection on cycles 1 and 4 only
        assert len(golf_cycles) == 6
        assert [c.liveness_checks for c in golf_cycles].count(0) >= 4


class TestFinalizerProtocol:
    def _leak_with_finalizer(self, rt, fired):
        def main():
            ch = yield MakeChan(0)

            def holder():
                values = yield Alloc(Box("data"))
                yield SetFinalizer(values, lambda obj: fired.append(obj))
                yield Recv(ch)

            yield Go(holder, name="finalizer-holder")
            yield Sleep(20 * MICROSECOND)

        run_to_end(rt, main)

    def test_deadlocked_with_finalizer_kept(self, rt):
        fired = []
        self._leak_with_finalizer(rt, fired)
        cs1 = rt.gc()
        assert cs1.deadlocks_detected == 1
        assert cs1.deadlocks_kept_for_finalizers == 1
        for _ in range(3):
            rt.gc()
        # Reported once, never reclaimed, finalizer never runs.
        assert rt.reports.total() == 1
        assert fired == []
        kept = [g for g in rt.sched.allgs if g.status == GStatus.DEADLOCKED]
        assert len(kept) == 1

    def test_kept_goroutine_memory_stays_reachable(self, rt):
        fired = []
        self._leak_with_finalizer(rt, fired)
        rt.gc()
        rt.gc()
        boxes = [o for o in rt.heap.objects() if o.kind == "box"]
        assert boxes, "finalizer-bearing subgraph must stay in memory"

    def test_unreferenced_finalizer_object_still_fires_normally(self, rt):
        fired = []

        def main():
            obj = yield Alloc(Box(1))
            yield SetFinalizer(obj, lambda o: fired.append(o))
            del obj
            yield Sleep(MICROSECOND)

        run_to_end(rt, main)
        rt.gc()
        assert len(fired) == 1


class TestPacing:
    def test_allocation_triggers_collection(self):
        config = GolfConfig(min_heap_bytes=8 * 1024)
        rt = Runtime(procs=1, seed=1, config=config)

        def main():
            for _ in range(32):
                yield Alloc(Blob(1024))

        run_to_end(rt, main)
        pacer_cycles = [
            c for c in rt.collector.stats.cycles if c.reason == "pacer"
        ]
        assert pacer_cycles

    def test_target_grows_with_live_heap(self):
        config = GolfConfig(min_heap_bytes=8 * 1024)
        rt = Runtime(procs=1, seed=1, config=config)
        keep = rt.alloc(Blob(64 * 1024))
        rt.set_global("keep", keep)
        rt.gc()
        assert rt.collector._next_target >= 128 * 1024

    def test_gc_pause_advances_clock(self, rt):
        before = rt.clock.now
        cs = rt.gc()
        assert rt.clock.now >= before + cs.pause_ns


class TestStats:
    def test_cycle_counters(self, rt):
        _leak_one(rt)
        rt.gc()
        rt.gc()
        stats = rt.collector.stats
        assert stats.num_gc == 2
        assert stats.total_deadlocks_detected == 1
        assert stats.total_goroutines_reclaimed == 1
        assert stats.pause_total_ns > 0
        assert stats.mean_mark_clock_ns() > 0

    def test_memstats_snapshot(self, rt):
        _leak_one(rt, payload_bytes=1024)
        ms = rt.memstats()
        assert ms.heap_alloc > 0
        assert ms.heap_inuse >= ms.heap_alloc
        assert ms.num_goroutine >= 1
        assert 0.0 <= ms.gc_cpu_fraction <= 1.0
        assert ms.as_dict()["heap_objects"] == ms.heap_objects

    def test_gc_until_quiescent(self, rt):
        _leak_one(rt)
        cycles = rt.gc_until_quiescent()
        assert cycles[-1].deadlocks_detected == 0
        assert cycles[-1].goroutines_reclaimed == 0
        assert rt.reports.total() == 1
