"""Tests for the schedcheck-style invariant sweep itself."""

from repro import GolfConfig, Runtime
from repro.errors import InjectedPanic
from repro.runtime.clock import MICROSECOND
from repro.runtime.goroutine import GStatus
from repro.runtime.instructions import (
    Go,
    Lock,
    MakeChan,
    NewMutex,
    Recv,
    RunGC,
    Send,
    Sleep,
    Work,
)
from tests.conftest import run_to_end


class TestHealthyStates:
    def test_fresh_runtime_clean(self, rt):
        assert rt.check_invariants() == []

    def test_after_program_clean(self, rt):
        def main():
            ch = yield MakeChan(0)

            def sender(c):
                yield Send(c, 1)

            yield Go(sender, ch)
            yield Recv(ch)

        run_to_end(rt, main)
        assert rt.check_invariants() == []

    def test_mid_run_with_blocked_goroutines_clean(self, rt):
        def main():
            ch = yield MakeChan(0)
            mu = yield NewMutex()
            yield Lock(mu)

            def receiver(c):
                yield Recv(c)

            def contender(m):
                yield Lock(m)

            yield Go(receiver, ch)
            yield Go(contender, mu)
            yield Sleep(100_000 * MICROSECOND)

        rt.spawn_main(main)
        rt.run(until_ns=100 * MICROSECOND)  # stop mid-flight
        assert rt.check_invariants() == []

    def test_after_detection_and_recovery_clean(self, rt):
        def main():
            ch = yield MakeChan(0)

            def sender(c):
                yield Send(c, 1)

            yield Go(sender, ch)
            del ch
            yield Sleep(20 * MICROSECOND)
            yield RunGC()
            yield RunGC()

        run_to_end(rt, main)
        assert rt.reports.total() == 1
        assert rt.check_invariants() == []


class TestDetectsCorruption:
    """Deliberately corrupt internal state; the sweep must notice."""

    def _runtime_with_blocked(self):
        rt = Runtime(procs=2, seed=1, config=GolfConfig())

        def main():
            ch = yield MakeChan(0)

            def sender(c):
                yield Send(c, 1)

            yield Go(sender, ch)
            yield Sleep(100_000 * MICROSECOND)

        rt.spawn_main(main)
        rt.run(until_ns=100 * MICROSECOND)
        return rt

    def test_flags_runnable_in_runq_corruption(self):
        rt = self._runtime_with_blocked()
        blocked = rt.sched.detectably_blocked()[0]
        rt.sched.runq.append(blocked)  # corrupt: waiting goroutine in runq
        assert any("runq" in p for p in rt.check_invariants())

    def test_flags_missing_wait_reason(self):
        rt = self._runtime_with_blocked()
        blocked = rt.sched.detectably_blocked()[0]
        blocked.wait_reason = None
        assert any("no wait reason" in p for p in rt.check_invariants())

    def test_flags_heap_accounting_drift(self):
        rt = self._runtime_with_blocked()
        rt.heap.total_freed_bytes += 64  # corrupt the counters
        assert any("byte accounting" in p for p in rt.check_invariants())

    def test_flags_live_goroutine_in_free_pool(self):
        rt = self._runtime_with_blocked()
        blocked = rt.sched.detectably_blocked()[0]
        rt.sched.gfree.append(blocked)
        assert any("free pool" in p for p in rt.check_invariants())

    def test_flags_busy_count_drift(self):
        rt = self._runtime_with_blocked()
        rt.sched._busy += 1
        assert any("busy count" in p for p in rt.check_invariants())


class TestBusyCount:
    """``Scheduler._busy`` is the number of processors holding a
    goroutine; the run loop's processor walk ends on it.  ``p.g``
    changes in ``_start_instruction``, ``_complete`` and ``kill``."""

    @staticmethod
    def _holding(rt):
        return sum(p.g is not None for p in rt.sched.procs)

    def _two_workers_mid_instruction(self):
        rt = Runtime(procs=4, seed=3, config=GolfConfig())
        workers = []

        def worker():
            yield Work(50)
            yield Work(50)

        def main():
            workers.append((yield Go(worker)))
            workers.append((yield Go(worker)))
            yield Sleep(200 * MICROSECOND)

        rt.spawn_main(main)
        rt.run(until_ns=20 * MICROSECOND)
        assert rt.sched._busy == self._holding(rt) == 2
        return rt, workers

    def test_flags_processor_without_an_instruction(self):
        rt, _ = self._two_workers_mid_instruction()
        rt.sched.procs[0].instr = None
        assert any("without an instruction" in p
                   for p in rt.check_invariants())

    def test_kill_of_a_goroutine_that_occupies_a_processor(self):
        rt, (victim, _) = self._two_workers_mid_instruction()
        assert any(p.g is victim for p in rt.sched.procs)
        rt.sched.kill(victim)
        assert rt.sched._busy == self._holding(rt) == 1
        assert rt.check_invariants() == []
        rt.run()
        assert rt.sched._busy == self._holding(rt) == 0
        assert rt.check_invariants() == []

    def test_fault_hook_that_returns_an_exception(self):
        rt, (victim, _) = self._two_workers_mid_instruction()
        seen = []

        def hook(g, instr):
            seen.append((rt.sched._busy, self._holding(rt)))
            if g is victim:
                rt.sched.fault_hook = None
                return InjectedPanic("chaos: boom")
            return None

        rt.sched.fault_hook = hook
        rt.run()
        assert seen and all(busy == holding for busy, holding in seen)
        assert rt.sched.goroutine_panics == [(victim.goid, "chaos: boom")]
        assert rt.sched._busy == self._holding(rt) == 0
        assert rt.check_invariants() == []

    def test_fault_hook_that_kills_the_completing_goroutine(self):
        """A fault-forced GC can roll back the subsystem of the very
        goroutine whose instruction is completing.  Its effect must not
        be applied: parking a killed goroutine would put a waiting
        descriptor in the free pool."""
        rt = Runtime(procs=2, seed=1, config=GolfConfig())
        killed = []

        def sender(ch):
            yield Send(ch, 1)  # unbuffered, no receiver: would park

        def main():
            ch = yield MakeChan(0)
            yield Go(sender, ch)
            yield Sleep(50 * MICROSECOND)

        def hook(g, instr):
            if isinstance(instr, Send):
                rt.sched.kill(g)
                killed.append(g)
            return None

        rt.sched.fault_hook = hook
        run_to_end(rt, main)
        (victim,) = killed
        assert victim.status == GStatus.DEAD
        assert rt.sched._busy == 0
        assert rt.check_invariants() == []
