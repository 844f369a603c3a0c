"""Tests for host-side constructors and remaining error paths."""

import pytest

from repro import GolfConfig, GoPanic, Runtime
from repro.errors import InvalidInstruction
from repro.runtime.clock import MICROSECOND
from repro.runtime.instructions import (
    Close,
    CondSignal,
    Go,
    Gosched,
    Lock,
    MakeChan,
    Recv,
    RLock,
    Send,
    Sleep,
    Unlock,
)
from repro.runtime.objects import Blob, Box
from tests.conftest import run_to_end


class TestHostConstructors:
    def test_make_chan(self, rt):
        ch = rt.make_chan(capacity=2, label="host-ch")
        assert rt.heap.contains(ch)
        assert ch.capacity == 2
        assert ch.make_site == "<host>"

    def test_sync_constructors_allocated(self, rt):
        mu = rt.new_mutex("m")
        rw = rt.new_rwmutex("rw")
        wg = rt.new_waitgroup("wg")
        cond = rt.new_cond(mu)
        pool = rt.new_pool()
        for obj in (mu, rw, wg, cond, pool):
            assert rt.heap.contains(obj)
        assert cond.locker is mu

    def test_host_channel_usable_from_program(self, rt):
        ch = rt.make_chan(capacity=1)
        got = {}

        def main():
            yield Send(ch, "host-made")
            got["value"], _ = yield Recv(ch)

        run_to_end(rt, main)
        assert got["value"] == "host-made"

    def test_host_go_spawns(self, rt):
        ran = []

        def background():
            yield Gosched()
            ran.append(True)

        def main():
            yield Sleep(10 * MICROSECOND)

        rt.go(background, name="bg")
        run_to_end(rt, main)
        assert ran == [True]

    def test_alloc_and_globals(self, rt):
        obj = rt.alloc(Box(5))
        rt.set_global("host.box", obj)
        assert rt.get_global("host.box") is obj
        assert rt.get_global("missing") is None


class TestErrorPaths:
    def test_go_with_non_generator_crashes(self, rt):
        def main():
            yield Go(lambda: 42)

        rt.spawn_main(main)
        with pytest.raises(TypeError):
            rt.run()

    def test_close_nil_channel_panics(self, rt):
        def main():
            yield Close(None)

        rt.spawn_main(main)
        with pytest.raises(GoPanic, match="nil channel"):
            rt.run()

    def test_lock_on_non_mutex_is_invalid(self, rt):
        def main():
            target = yield from _alloc_blob()
            yield Lock(target)

        def _alloc_blob():
            from repro.runtime.instructions import Alloc
            blob = yield Alloc(Blob(8))
            return blob

        rt.spawn_main(main)
        with pytest.raises(InvalidInstruction):
            rt.run()

    def test_rlock_on_plain_mutex_is_invalid(self, rt):
        def main():
            from repro.runtime.instructions import NewMutex
            mu = yield NewMutex()
            yield RLock(mu)

        rt.spawn_main(main)
        with pytest.raises(InvalidInstruction):
            rt.run()

    def test_unlock_on_non_mutex_is_invalid(self, rt):
        def main():
            from repro.runtime.instructions import Alloc
            blob = yield Alloc(Blob(8))
            yield Unlock(blob)

        rt.spawn_main(main)
        with pytest.raises(InvalidInstruction):
            rt.run()

    def test_cond_signal_on_unwaited_cond_is_noop(self, rt):
        def main():
            from repro.runtime.instructions import NewCond, NewMutex
            mu = yield NewMutex()
            cond = yield NewCond(mu)
            yield CondSignal(cond)

        assert run_to_end(rt, main) == "main-exited"

