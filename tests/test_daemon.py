"""Detection daemon lifecycle, SLOs, and scheduler invisibility."""

from __future__ import annotations

import json

import pytest

from repro import GolfConfig, Runtime
from repro.daemon import DaemonError, DetectionDaemon
from repro.equivalence import PAIRS
from repro.runtime.clock import MILLISECOND, SECOND
from repro.runtime.goroutine import GStatus
from repro.runtime.instructions import Alloc, Go, Recv, Send, Sleep, Work
from repro.runtime.invariants import check_invariants
from repro.runtime.objects import Box
from repro.runtime.scheduler import RunStatus
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
        assert rt.run(until_ns=6 * MILLISECOND) == RunStatus.TIMEOUT
        rt.stop_partial_deadlock_detection()
        # Nothing of the daemon outlives stop(): with no tick pending
        # the loop goes idle where it stands instead of being kept
        # alive until the deadline.
        assert rt.run(until_ns=SECOND) == RunStatus.IDLE
        assert rt.clock.now == 6 * MILLISECOND
        assert daemon.stats.checks == 0
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
        assert check_invariants(rt) == []


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


def _busy(rt, leaks=True, spin=False):
    """Two workers that allocate, talk and sleep until 40 ms, a forced
    GC every 2 ms, (``leaks``) a leaked goroutine every 8 ms and
    (``spin``) one goroutine that never leaves its processor."""
    rt.enable_periodic_gc(2 * MILLISECOND)

    def spinner():
        while True:
            yield Work(37)

    def worker(ch):
        for i in range(150):
            yield Send(ch, (yield Alloc(Box(bytes(500)))))
            yield Sleep(250_000 + 3_000 * (i % 7))

    def main():
        ch = rt.make_chan(2)
        if spin:
            yield Go(spinner)
        for _ in range(2):
            yield Go(worker, ch)
        for i in range(300):
            yield Recv(ch)
            if leaks and i % 60 == 0:
                del_me = yield from _orphan(i)
                del del_me
            if i % 11 == 0:
                yield Work(20)
        yield Sleep(SECOND)

    rt.spawn_main(main)


class TestObserversAreIndependent:
    """Tickers do not share a processor, so starting one never moves
    another's tick instants."""

    @staticmethod
    def _run(scraper, daemon=True, collide=False):
        rt = Runtime(procs=2, seed=3)
        hub = rt.enable_telemetry()
        hub.enable_tsdb(scrape_interval_ms=0.9)
        if scraper == "before":
            rt.start_metrics_scrape()
        if daemon:
            rt.detect_partial_deadlock(interval_ms=1.1)
        if scraper == "after":
            rt.start_metrics_scrape()
        if collide:
            # Due together with every second daemon tick.
            rt.sched.add_ticker(2 * 1_100_200 - rt.sched.base_cost_ns,
                                lambda: None)
        # No leaks: a daemon that reports one first moves GC pauses, and
        # with them every later instant — its purpose, not interference.
        _busy(rt, leaks=False)
        rt.run(until_ns=60 * MILLISECOND)
        checks = rt.detection_daemon.stats.check_times_ns if daemon else None
        scrapes = (hub.tsdb.get("repro_clock_ns").times
                   if scraper else None)
        return checks, scrapes

    def test_scraper_does_not_move_detection(self):
        alone, _ = self._run(scraper=None)
        assert len(alone) == 54
        assert self._run(scraper="after")[0] == alone
        assert self._run(scraper="before")[0] == alone
        assert self._run(scraper=None, collide=True)[0] == alone
        assert self._run(scraper="before", collide=True)[0] == alone

    def test_daemon_does_not_move_scrapes(self):
        _, alone = self._run(scraper="before", daemon=False)
        assert len(alone) == 66
        assert self._run(scraper="before")[1] == alone
        assert self._run(scraper="after")[1] == alone
        assert self._run(scraper="after", collide=True)[1] == alone


class TestNothingReachesTheTracer:
    """A ticker is not a goroutine: it has no lane, no ``instr`` slice
    and no lifecycle events in the execution trace."""

    @staticmethod
    def _trace(observed):
        rt = Runtime(procs=2, seed=5)
        tracer = rt.enable_tracing()
        if observed:
            rt.enable_telemetry(scrape_interval_ms=0.9)
            rt.detect_partial_deadlock(interval_ms=3)
        else:
            rt.enable_telemetry()
        _busy(rt, leaks=False)
        rt.run(until_ns=50 * MILLISECOND)
        rt.stop_partial_deadlock_detection()
        return rt, tracer

    def test_no_goroutine_activity_from_tickers(self):
        from repro.trace.chrome import export_chrome_trace

        rt, tracer = self._trace(observed=True)
        assert rt.detection_daemon.stats.checks > 10
        assert rt.metrics_scraper.scrapes > 40
        events = tracer.events
        assert all(e.goid < 1_000_000_000 for e in events)
        assert all(e.pid >= 0 for e in events if e.kind == "instr")
        by_kind = {k: tracer.of_kind(k)
                   for k in ("daemon-start", "daemon-stop")}
        assert [len(v) for v in by_kind.values()] == [1, 1]
        assert all(e.goid == 0 for v in by_kind.values() for e in v)
        # Nothing leaks, so the daemon reports nothing first and the
        # user's event stream is the unobserved run's.
        user = [e.as_dict() for e in events
                if not e.kind.startswith("daemon-")]
        _, bare = self._trace(observed=False)
        assert user == [e.as_dict() for e in bare.events]
        lanes = [e["args"]["name"]
                 for e in export_chrome_trace(tracer)["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        assert "g1000000000" not in lanes
        assert not [n for n in lanes if n.startswith("g0")]

    def test_daemon_detect_is_a_goid_zero_instant(self):
        rt = Runtime(seed=2)
        tracer = rt.enable_tracing()
        _leak(rt, "orphan")
        rt.detect_partial_deadlock(interval_ms=10)
        rt.run(until_ns=15 * MILLISECOND)
        (event,) = tracer.of_kind("daemon-detect")
        assert event.goid == 0 and event.t_ns == 10 * MILLISECOND + 200


class TestTicker:
    """The scheduler ticker under the daemon and the scraper."""

    @pytest.mark.parametrize("gc_mode", ["atomic", "incremental"])
    @pytest.mark.parametrize("interval_ms", [0.7, 1.1, 5, 50])
    def test_period_first_fire_and_restart(self, interval_ms, gc_mode):
        rt = Runtime(seed=1, config=GolfConfig(gc_mode=gc_mode))
        period = int(interval_ms * MILLISECOND) + rt.sched.base_cost_ns
        first = rt.detect_partial_deadlock(interval_ms=interval_ms)
        rt.run(until_ns=3 * period + 17)
        rt.stop_partial_deadlock_detection()
        assert first.stats.check_times_ns == [period, 2 * period, 3 * period]
        rt.run(until_ns=4 * period + 5)     # nothing pending: IDLE at once
        assert rt.clock.now == 3 * period + 17
        second = rt.detect_partial_deadlock(interval_ms=interval_ms)
        rt.run(until_ns=6 * period)
        assert first.stats.checks == 3
        assert second.stats.check_times_ns == [
            3 * period + 17 + period, 3 * period + 17 + 2 * period]

    @pytest.mark.parametrize("gc_mode", ["atomic", "incremental"])
    def test_rearms_from_the_clock_after_a_pause(self, gc_mode):
        rt = Runtime(seed=1, config=GolfConfig(gc_mode=gc_mode))
        daemon = rt.detect_partial_deadlock(interval_ms=1)
        rt.run(until_ns=MILLISECOND + 199)      # one ns short of the tick
        rt.gc()                                 # the pause jumps past it
        late = rt.clock.now
        assert late > MILLISECOND + 200
        rt.run(until_ns=3 * MILLISECOND)
        assert daemon.stats.check_times_ns == [
            late, late + MILLISECOND + 200]

    def test_fires_after_due_sleepers_wake_before_dispatch(self):
        rt = Runtime(seed=1)
        seen = []
        g = rt.go(_sleeper(1))      # parks at 200, due at 1 ms + 200
        rt.sched.add_ticker(MILLISECOND, lambda: seen.append(
            (rt.clock.now, g.status, rt.sched.instructions_executed)))
        rt.run(until_ns=MILLISECOND + 200)
        assert seen == [(MILLISECOND + 200, GStatus.RUNNABLE, 1)]

    @pytest.mark.parametrize("with_ticker", [False, True])
    def test_never_a_gc_step_boundary(self, with_ticker):
        """Both legs against the ticker-less run, so a failure names the
        side that moved.  A mutator is always busy, so every cycle is
        stepped from instruction boundaries: one that finishes in the
        idle loop leaves its woken ``runtime.GC`` callers undispatched
        until the loop next stops, and any stop — a ticker's included —
        is then visible (true of the loop before tickers, too)."""
        def run(ticking):
            rt = Runtime(procs=3, seed=3,
                         config=GolfConfig(gc_mode="incremental",
                                           mark_budget=1))
            ticks = []
            if ticking:
                rt.sched.add_ticker(
                    40_000, lambda: ticks.append(rt.clock.now))
            _busy(rt, spin=True)
            rt.run(until_ns=30 * MILLISECOND)
            return ([(c.mark_steps, c.started_at_ns, c.pause_termination_ns)
                     for c in rt.collector.stats.cycles],
                    rt.sched.instructions_executed, rt.sched.cpu_busy_ns,
                    rt.sched.rng.random(), len(ticks))

        *bare, _ = run(False)
        *observed, ticks = run(with_ticker)
        assert observed == bare
        assert max(steps for steps, _, _ in bare[0]) > 1
        assert (ticks > 700) == with_ticker

    def test_keeps_the_loop_alive_and_honours_until(self):
        rt = Runtime(seed=1)
        assert rt.run(until_ns=MILLISECOND) == RunStatus.IDLE
        assert rt.clock.now == 0
        ticks = []
        rt.sched.add_ticker(MILLISECOND, lambda: ticks.append(rt.clock.now))
        assert rt.run(until_ns=MILLISECOND) == RunStatus.TIMEOUT
        assert (rt.clock.now, ticks) == (MILLISECOND, [])
        # Still queued: the next run() picks it up where it was due.
        assert rt.run(until_ns=2 * MILLISECOND + 400) == RunStatus.TIMEOUT
        assert ticks == [MILLISECOND + 200, 2 * MILLISECOND + 400]

    def test_remove_from_inside_the_callback(self):
        rt = Runtime(seed=1)
        ticks = []

        def once():
            ticks.append(rt.clock.now)
            rt.sched.remove_ticker(ticker)

        ticker = rt.sched.add_ticker(MILLISECOND, once)
        assert rt.run(until_ns=SECOND) == RunStatus.IDLE
        assert ticks == [MILLISECOND + 200]
        rt.sched.remove_ticker(ticker)          # idempotent
        assert check_invariants(rt) == []

    def test_controller_lifecycle(self):
        rt = Runtime(seed=1)
        daemon = DetectionDaemon(rt, interval_ns=MILLISECOND)
        daemon.stop()                           # never started: no-op
        daemon.start()
        with pytest.raises(DaemonError):
            daemon.start()
        daemon.stop()
        daemon.stop()
        assert not daemon.running
        daemon.start()                          # restart, same controller
        rt.run(until_ns=MILLISECOND + 200)
        assert daemon.stats.checks == 1

    def test_raising_tick_surfaces_from_run(self):
        class Boom(Exception):
            pass

        rt = Runtime(seed=1)
        daemon = rt.detect_partial_deadlock(interval_ms=1)

        def boom(reason="daemon"):
            raise Boom(reason)

        rt.collector.detect_only = boom
        rt.spawn_main(_sleeper(5))
        with pytest.raises(Boom):
            rt.run()
        assert rt.clock.now == MILLISECOND + 200
        assert daemon.stats.checks == 0


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
        assert rt.detection_daemon.running
        assert {g.goid for g in rt.sched.allgs} == {g1.goid, g2.goid}

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
