"""Tests for sync.Pool (GC-integrated) and diagnostic dumps."""

from repro import GolfConfig, Runtime
from repro.gc.stats import format_gctrace
from repro.runtime.clock import MICROSECOND
from repro.runtime.goroutine import GStatus
from repro.runtime.instructions import (
    Go,
    MakeChan,
    Recv,
    RunGC,
    Send,
    Sleep,
)
from repro.runtime.objects import Blob, Box
from repro.runtime.pprof import format_stack_dump
from tests.conftest import run_to_end


class TestSyncPool:
    def test_get_put_roundtrip(self, rt):
        pool = rt.new_pool()
        item = rt.alloc(Box("x"))
        pool.put(item)
        assert pool.get() is item
        assert pool.get() is None  # empty, no factory

    def test_factory_on_miss(self, rt):
        made = []
        pool = rt.new_pool(new=lambda: made.append(1) or "fresh")
        assert pool.get() == "fresh"
        assert pool.misses == 1 and made == [1]

    def test_survives_one_cycle_dropped_by_second(self, rt):
        pool = rt.new_pool()
        rt.set_global("pool", pool)  # pools live in package-level vars
        item = rt.alloc(Blob(4096))
        pool.put(item)

        rt.gc()  # primary -> victim: still retrievable, still in memory
        assert rt.heap.contains(item)
        assert len(pool) == 1

        rt.gc()  # victim released: collected
        assert len(pool) == 0
        assert not rt.heap.contains(item)

    def test_get_prefers_primary_then_victim(self, rt):
        pool = rt.new_pool()
        old = rt.alloc(Box("old"))
        pool.put(old)
        rt.gc()  # old moves to the victim cache
        new = rt.alloc(Box("new"))
        pool.put(new)
        assert pool.get() is new
        assert pool.get() is old

    def test_pool_contents_reachable_until_dropped(self, rt):
        """An object only referenced by the pool must not be swept while
        the pool still hands it out — but the pool itself must be live."""
        pool = rt.new_pool()
        rt.set_global("pool", pool)
        item = rt.alloc(Blob(128))
        pool.put(item)
        rt.gc()
        assert rt.heap.contains(item)  # victim cache is still referenced

    def test_pool_usage_from_goroutines(self, rt):
        pool = rt.new_pool(new=lambda: "buffer")
        stats = {}

        def main():
            def worker(out):
                buf = pool.get()
                yield Sleep(5 * MICROSECOND)
                pool.put(buf)
                yield Send(out, buf)

            out = yield MakeChan(0)
            yield Go(worker, out)
            value, _ = yield Recv(out)
            stats["value"] = value

        run_to_end(rt, main)
        assert stats["value"] == "buffer"
        assert pool.gets == 1 and pool.puts == 1


class TestDumps:
    def _leaky_rt(self):
        rt = Runtime(procs=2, seed=5, config=GolfConfig())

        def main():
            ch = yield MakeChan(0)

            def sender(c):
                yield Send(c, 1)

            yield Go(sender, ch, name="stuck-sender")
            yield Sleep(20 * MICROSECOND)
            yield RunGC()

        rt.spawn_main(main)
        rt.run(until_ns=100_000_000)
        return rt

    def test_stack_dump_lists_goroutines(self):
        rt = self._leaky_rt()
        dump = format_stack_dump(rt)
        assert "goroutine" in dump
        assert "[chan send]" in dump
        assert "created by" in dump

    def test_stack_dump_excludes_system_by_default(self):
        rt = Runtime(procs=1, seed=1)
        rt.enable_periodic_gc(50 * MICROSECOND)

        def main():
            yield Sleep(10 * MICROSECOND)

        run_to_end(rt, main)
        assert any(g.is_system and g.status != GStatus.DEAD
                   for g in rt.sched.allgs)
        assert format_stack_dump(rt) == ""

    def test_gctrace_format(self):
        rt = self._leaky_rt()
        rt.gc()
        trace = format_gctrace(rt.collector.stats)
        lines = trace.splitlines()
        assert lines[0].startswith("gc 1 @")
        assert "golf" in lines[0]
        assert "pause" in lines[0]
        assert "deadlocks" in trace
