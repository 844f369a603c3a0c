"""Scale and stress tests: thousands of goroutines, deep graphs.

Not micro-optimizing — pinning down that the simulator's data structures
(run queue, timers, semaphore table, marking) behave at the population sizes the
service experiments reach, and that detection stays exact at scale.
"""

import pytest

from repro import GolfConfig, Runtime
from repro.runtime.clock import MICROSECOND, MILLISECOND, SECOND
from repro.runtime.instructions import (
    Alloc,
    Go,
    Lock,
    MakeChan,
    NewMutex,
    Recv,
    RunGC,
    Send,
    Sleep,
    Unlock,
    WgAdd,
    WgDone,
    WgWait,
    NewWaitGroup,
)
from repro.runtime.objects import Box


class TestManyGoroutines:
    def test_2000_goroutine_fan_out_join(self):
        rt = Runtime(procs=8, seed=1)
        total = 2000

        def main():
            wg = yield NewWaitGroup()

            def worker():
                yield Sleep(5 * MICROSECOND)
                yield WgDone(wg)

            for _ in range(total):
                yield WgAdd(wg, 1)
                yield Go(worker)
            yield WgWait(wg)

        rt.spawn_main(main)
        assert rt.run(until_ns=10 * SECOND,
                      max_instructions=5_000_000) == "main-exited"
        assert rt.sched.goroutines_spawned == total + 1

    def test_1000_leaks_all_detected_and_reclaimed(self):
        rt = Runtime(procs=4, seed=2, config=GolfConfig())
        leaks = 1000

        def main():
            def sender(c):
                yield Send(c, 1)

            for _ in range(leaks):
                ch = yield MakeChan(0)
                yield Go(sender, ch, name="mass-leak")
                del ch
            yield Sleep(MILLISECOND)
            yield RunGC()
            yield RunGC()

        rt.spawn_main(main)
        rt.run(until_ns=10 * SECOND, max_instructions=5_000_000)
        assert rt.reports.total() == leaks
        assert rt.collector.stats.total_goroutines_reclaimed == leaks
        # Descriptor pool absorbed everything; nothing lingers.
        assert rt.blocked_goroutine_count() == 0

    def test_500_live_blocked_none_reported(self):
        """A big parked-but-live pool: zero false positives at scale."""
        rt = Runtime(procs=4, seed=3, config=GolfConfig())

        def main():
            jobs = yield MakeChan(0)

            def worker():
                yield Recv(jobs)

            for _ in range(500):
                yield Go(worker)
            yield Sleep(100 * MICROSECOND)
            yield RunGC()
            # Drain everyone so the program ends cleanly.
            for _ in range(500):
                yield Send(jobs, None)
            yield Sleep(100 * MICROSECOND)

        rt.spawn_main(main)
        assert rt.run(until_ns=10 * SECOND,
                      max_instructions=5_000_000) == "main-exited"
        assert rt.reports.total() == 0

    def test_mutex_convoy(self):
        """Hundreds of goroutines hammering one mutex: progress and a
        consistent final count."""
        rt = Runtime(procs=4, seed=4)
        state = {"count": 0}

        def main():
            mu = yield NewMutex()
            wg = yield NewWaitGroup()

            def incrementer():
                for _ in range(3):
                    yield Lock(mu)
                    state["count"] += 1
                    yield Unlock(mu)
                yield WgDone(wg)

            for _ in range(200):
                yield WgAdd(wg, 1)
                yield Go(incrementer)
            yield WgWait(wg)

        rt.spawn_main(main)
        assert rt.run(until_ns=10 * SECOND,
                      max_instructions=5_000_000) == "main-exited"
        assert state["count"] == 600
        assert len(rt.sched.semtable) == 0


class TestDeepStructures:
    def test_deep_heap_graph_marked_fully(self):
        """A 3000-deep linked list survives collection end to end."""
        rt = Runtime(procs=1, seed=5, config=GolfConfig())
        depth = 3000

        def main():
            head = yield Alloc(Box(None))
            node = head
            for _ in range(depth):
                nxt = yield Alloc(Box(None))
                node.value = nxt
                node = nxt
            yield RunGC()
            # Walk it: every node must still be there.
            count = 0
            walker = head
            while walker.value is not None:
                walker = walker.value
                count += 1
            assert count == depth
            yield Sleep(MICROSECOND)

        rt.spawn_main(main)
        assert rt.run(until_ns=10 * SECOND,
                      max_instructions=5_000_000) == "main-exited"

    def test_long_deadlocked_chain_detected_whole(self):
        rt = Runtime(procs=2, seed=6, config=GolfConfig())
        length = 150

        def main():
            def stage(src, remaining):
                if remaining > 0:
                    dst = yield MakeChan(0)
                    yield Go(stage, dst, remaining - 1, name="chain")
                yield Recv(src)

            head = yield MakeChan(0)
            yield Go(stage, head, length - 1, name="chain")
            del head
            yield Sleep(500 * MICROSECOND)
            yield RunGC()
            yield RunGC()

        rt.spawn_main(main)
        rt.run(until_ns=10 * SECOND, max_instructions=5_000_000)
        assert rt.reports.total() == length

    def test_timer_storm(self):
        """Thousands of concurrent timers fire in order and on time."""
        rt = Runtime(procs=4, seed=7)
        fired = []

        def main():
            def sleeper(i):
                yield Sleep((i % 50 + 1) * MICROSECOND)
                fired.append(i)

            for i in range(1500):
                yield Go(sleeper, i)
            yield Sleep(MILLISECOND)

        rt.spawn_main(main)
        assert rt.run(until_ns=10 * SECOND,
                      max_instructions=5_000_000) == "main-exited"
        assert len(fired) == 1500
