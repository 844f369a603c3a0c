"""Detection daemon lifecycle, SLOs, and scheduler invisibility."""

from __future__ import annotations

import json

import pytest

from repro import GolfConfig, Runtime
from repro.daemon import DaemonError, DetectionDaemon
from repro.equivalence import PAIRS
from repro.runtime.clock import MILLISECOND
from repro.runtime.goroutine import GStatus
from repro.runtime.instructions import Recv, Sleep
from repro.runtime.invariants import check_invariants
from repro.runtime.watchdog import Watchdog
from tests.conftest import swept


def _orphan(i):
    """Goroutine-side helper: orphan one goroutine on a fresh channel.

    Usable only inside a goroutine body (``yield from _orphan(i)``).
    """
    from repro.runtime.instructions import Go, MakeChan

    ch = yield MakeChan(0)

    def stuck(c):
        yield Recv(c)

    yield Go(stuck, ch, name=f"leak-{i}")
    return ch


def _leak(rt, tag="leak"):
    """Orphan one goroutine on a channel nothing else references."""
    ch = rt.make_chan(0)
    def stuck():
        yield Recv(ch)
    g = rt.go(stuck, name=tag)
    g.deadlock_label = tag
    return g


def _sleeper(ms):
    def main():
        yield Sleep(ms * MILLISECOND)
    return main


class TestLifecycle:
    def test_start_returns_running_daemon(self):
        rt = Runtime(seed=1)
        daemon = rt.detect_partial_deadlock(interval_ms=10)
        assert isinstance(daemon, DetectionDaemon)
        assert daemon.running
        assert rt.detection_daemon is daemon

    def test_double_start_rejected(self):
        rt = Runtime(seed=1)
        rt.detect_partial_deadlock(interval_ms=10)
        with pytest.raises(DaemonError):
            rt.detect_partial_deadlock(interval_ms=10)

    def test_stop_is_idempotent(self):
        rt = Runtime(seed=1)
        rt.detect_partial_deadlock(interval_ms=10)
        rt.stop_partial_deadlock_detection()
        rt.stop_partial_deadlock_detection()   # no-op, no error
        assert not rt.detection_daemon.running

    def test_stop_without_start_is_noop(self):
        rt = Runtime(seed=1)
        rt.stop_partial_deadlock_detection()
        assert rt.detection_daemon is None

    def test_restart_after_stop(self):
        rt = Runtime(seed=1)
        first = rt.detect_partial_deadlock(interval_ms=10)
        rt.spawn_main(_sleeper(25))
        rt.run(until_ns=30 * MILLISECOND)
        rt.stop_partial_deadlock_detection()
        assert not first.running
        second = rt.detect_partial_deadlock(interval_ms=10)
        assert second.running
        assert rt.detection_daemon is second

    def test_invalid_interval_rejected(self):
        rt = Runtime(seed=1)
        with pytest.raises(DaemonError):
            DetectionDaemon(rt, interval_ns=0)

    def test_non_golf_runtime_rejected(self):
        rt = Runtime(seed=1, config=GolfConfig.baseline())
        with pytest.raises(DaemonError):
            rt.detect_partial_deadlock(interval_ms=10)

    def test_stopped_daemon_goroutine_dies(self):
        rt = Runtime(seed=1)
        daemon = rt.detect_partial_deadlock(interval_ms=10)
        rt.spawn_main(_sleeper(20))
        rt.run(until_ns=6 * MILLISECOND)
        rt.stop_partial_deadlock_detection()
        # The daemon goroutine is timer-parked until the next tick; it
        # notices the stop flag when it wakes and exits cleanly.
        rt.run(until_ns=15 * MILLISECOND)
        assert daemon._g.status == GStatus.DEAD
        assert check_invariants(rt) == []


class TestDetection:
    def test_detects_leak_without_any_gc(self):
        """The daemon's fixpoint runs on its own timer, no GC required."""
        rt = Runtime(seed=2)
        _leak(rt, "orphan")
        rt.detect_partial_deadlock(interval_ms=10)
        rt.spawn_main(_sleeper(50))
        rt.run(until_ns=60 * MILLISECOND)
        assert rt.reports.has_label("orphan")
        assert rt.collector.stats.num_gc == 0  # no cycle ever ran

    def test_detection_latency_bounded_by_interval(self):
        """A leak manifesting at t is reported by the next timer check."""
        rt = Runtime(seed=2)
        _leak(rt, "orphan")
        rt.detect_partial_deadlock(interval_ms=10)
        rt.spawn_main(_sleeper(50))
        rt.run(until_ns=60 * MILLISECOND)
        report = next(r for r in rt.reports if r.label == "orphan")
        # Manifested at ~0; first check fires one interval in (plus the
        # daemon's own instruction cost).
        assert report.detected_at_ns <= 10 * MILLISECOND + rt.sched.base_cost_ns

    def test_checks_respect_interval_cadence(self):
        rt = Runtime(seed=3)
        daemon = rt.detect_partial_deadlock(interval_ms=10)
        rt.spawn_main(_sleeper(95))
        rt.run(until_ns=100 * MILLISECOND)
        assert daemon.stats.checks == 9
        gaps = {b - a for a, b in zip(daemon.stats.check_times_ns,
                                      daemon.stats.check_times_ns[1:])}
        # Each tick lands one interval plus the daemon's own fixed
        # instruction cost after the previous one.
        assert gaps == {10 * MILLISECOND + rt.sched.base_cost_ns}

    def test_check_skipped_while_collector_mid_cycle(self):
        """detect_only declines when a cycle is in flight (incremental)."""
        from repro.gc.phases import GCPhase

        rt = Runtime(seed=3)
        daemon = rt.detect_partial_deadlock(interval_ms=10)
        rt.collector.phase = GCPhase.MARKING
        assert rt.collector.detect_only(reason="daemon") is None
        rt.collector.phase = GCPhase.IDLE
        assert daemon.stats.checks == 0

    def test_stop_during_fixpoint_finishes_current_check(self):
        """stop() from inside a detection callback: the in-flight check
        completes (its reports land) and the daemon halts after."""
        rt = Runtime(seed=4)
        _leak(rt, "one")
        _leak(rt, "two")
        daemon = rt.detect_partial_deadlock(interval_ms=10)

        def on_report(report):
            rt.stop_partial_deadlock_detection()

        rt.config.on_report = on_report
        rt.spawn_main(_sleeper(50))
        rt.run(until_ns=60 * MILLISECOND)
        # Both leaks were visible to the same fixpoint: stopping at the
        # first report must not lose the second.
        assert rt.reports.has_label("one")
        assert rt.reports.has_label("two")
        assert not daemon.running
        assert daemon.stats.checks == 1


class TestInvisibility:
    def test_daemon_does_not_perturb_user_schedule(self):
        """Same seed, daemon on vs off, on every ground-truth program:
        identical user-visible execution (instruction counts and final
        clocks untouched, RNG stream unperturbed) with the daemon really
        ticking.  Only where a tick claims a leak before the next GC
        does — the daemon's purpose — may cycle numbers and the clock
        move; the last test of this class pins the case where none can."""
        for seed in (7, 11):
            result = swept("daemon", seed)
            assert result.clean, "\n" + result.format()
            assert result.witness["daemon_checks"] >= result.runs
            # ...and only a handful of runs needed the exclusion.
            assert result.witness["first_reports"] < 10
        assert "instructions" not in PAIRS["daemon"].excluded

    def test_daemon_excluded_from_scheduler_accounting(self):
        rt = Runtime(seed=9)
        rt.detect_partial_deadlock(interval_ms=5)
        rt.spawn_main(_sleeper(30))
        rt.run(until_ns=35 * MILLISECOND)
        daemon = rt.detection_daemon
        assert daemon.stats.checks >= 5
        # The daemon ran, but no user-visible counters moved: main
        # executed exactly one instruction (its Sleep).
        assert rt.sched.instructions_executed == 1
        assert rt.sched.cpu_busy_ns == rt.sched.base_cost_ns * 1

    def test_reports_byte_identical_daemon_on_or_off(self):
        """With periodic GC outpacing the daemon, every leak is first
        seen by a GC cycle — the daemon surfaces nothing new, and the
        report stream is byte-for-byte identical to a daemon-less run.

        (The GC interval must genuinely outpace the daemon: a daemon
        tick landing between a leak's manifestation and the next GC
        detection point would legitimately claim the leak first.)"""
        def run(with_daemon):
            rt = Runtime(procs=2, seed=5)
            rt.enable_periodic_gc(2 * MILLISECOND)
            if with_daemon:
                rt.detect_partial_deadlock(interval_ms=3)

            def main():
                for i in range(6):
                    ch = yield from _orphan(i)
                    del ch
                    yield Sleep(3 * MILLISECOND)
                yield Sleep(20 * MILLISECOND)

            rt.spawn_main(main)
            rt.run(until_ns=200 * MILLISECOND)
            rt.gc_until_quiescent()
            return json.dumps([r.as_dict() for r in rt.reports],
                              sort_keys=True)

        assert run(True) == run(False)


class TestFuzzAutoStart:
    def test_fuzz_runs_daemon_by_default(self):
        from repro.fuzz import fuzz_program

        def factory():
            def main():
                ch = yield from _orphan(0)
                del ch
                yield Sleep(30 * MILLISECOND)
            return main

        result = fuzz_program(factory, profiles=2,
                              budget_ns=40 * MILLISECOND)
        assert all(s == "main-exited" for s in result.statuses.values())

    def test_fuzz_daemon_detects_equivalently(self):
        """Daemon on (default) vs off: identical label sets — auto-start
        changes *when* leaks surface, never *what* is found."""
        from repro.fuzz import fuzz_program

        def factory():
            def main():
                ch = yield from _orphan(0)
                del ch
                yield Sleep(30 * MILLISECOND)
            return main

        with_daemon = fuzz_program(factory, profiles=2,
                                   budget_ns=40 * MILLISECOND)
        without = fuzz_program(factory, profiles=2,
                               budget_ns=40 * MILLISECOND,
                               daemon_interval_ms=None)
        assert with_daemon.by_profile == without.by_profile


class TestWatchdogExemption:
    def test_daemon_never_in_stall_verdict(self):
        """All user goroutines wedged: the watchdog must still fire, and
        the daemon goroutine must not appear among the accused."""
        rt = Runtime(seed=6)
        rt.detect_partial_deadlock(interval_ms=50)
        watchdog = Watchdog(rt)

        ch = rt.make_chan(0)

        def wedged():
            yield Recv(ch)

        g1 = rt.go(wedged, name="wedged-1")
        g2 = rt.go(wedged, name="wedged-2")
        rt.run(until_ns=5 * MILLISECOND)

        report = watchdog.poll()   # first snapshot
        report = watchdog.poll()   # unchanged => stall
        assert report is not None
        assert set(report.goids) == {g1.goid, g2.goid}
        daemon_goid = rt.detection_daemon._g.goid
        assert daemon_goid not in report.goids

    def test_timer_parked_daemon_does_not_mask_stall(self):
        """The daemon is always timer-parked between checks; that must
        not read as 'some goroutine can still make progress'."""
        rt = Runtime(seed=6)
        rt.detect_partial_deadlock(interval_ms=50)
        watchdog = Watchdog(rt)
        ch = rt.make_chan(0)

        def wedged():
            yield Recv(ch)

        rt.go(wedged, name="wedged")
        rt.run(until_ns=5 * MILLISECOND)
        assert watchdog.poll() is None       # baseline snapshot
        assert watchdog.poll() is not None   # stall detected
