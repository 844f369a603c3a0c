"""Tests for goroutine descriptors: stack scanning, states, cleanup."""

from repro import Runtime
from repro.runtime.clock import MICROSECOND
from repro.runtime.goroutine import EPSILON, Goroutine, GStatus, Sudog
from repro.runtime.instructions import (
    Alloc,
    Go,
    MakeChan,
    Recv,
    Send,
    Sleep,
)
from repro.runtime.objects import Box, Slice
from repro.runtime.waitreason import WaitReason
from tests.conftest import run_to_end


class TestStates:
    def test_fresh_descriptor_is_dead(self):
        assert Goroutine(goid=1).status == GStatus.DEAD

    def test_detectable_blocking(self):
        g = Goroutine(goid=1)
        g.status = GStatus.WAITING
        g.wait_reason = WaitReason.CHAN_SEND
        assert g.is_blocked_detectably

    def test_sleep_is_not_detectable(self):
        g = Goroutine(goid=1)
        g.status = GStatus.WAITING
        g.wait_reason = WaitReason.SLEEP
        assert not g.is_blocked_detectably

    def test_system_goroutine_never_detectable(self):
        g = Goroutine(goid=1)
        g.status = GStatus.WAITING
        g.wait_reason = WaitReason.CHAN_RECEIVE
        g.is_system = True
        assert not g.is_blocked_detectably


class TestStackScanning:
    def test_frame_locals_scanned(self, rt):
        held = {}

        def main():
            def holder():
                data = yield Alloc(Box("payload"))
                held["obj"] = data
                yield Sleep(10_000 * MICROSECOND)

            g = yield Go(holder)
            held["g"] = g
            yield Sleep(10 * MICROSECOND)

        rt.spawn_main(main)
        rt.run(until_ns=100 * MICROSECOND)
        assert held["obj"] in set(held["g"].stack_heap_refs())

    def test_yield_from_subframes_scanned(self, rt):
        held = {}

        def main():
            def helper():
                inner = yield Alloc(Box("inner"))
                held["obj"] = inner
                yield Sleep(10_000 * MICROSECOND)

            def outer():
                yield from helper()

            g = yield Go(outer)
            held["g"] = g
            yield Sleep(10 * MICROSECOND)

        rt.spawn_main(main)
        rt.run(until_ns=100 * MICROSECOND)
        assert held["obj"] in set(held["g"].stack_heap_refs())

    def test_blocked_sender_references_its_channel(self, rt):
        held = {}

        def main():
            ch = yield MakeChan(0)
            held["ch"] = ch

            def sender():
                yield Send(ch, 1)

            held["g"] = (yield Go(sender))
            yield Sleep(10 * MICROSECOND)

        rt.spawn_main(main)
        rt.run(until_ns=100 * MICROSECOND)
        assert held["ch"] in set(held["g"].stack_heap_refs())

    def test_sent_value_reachable_through_sender(self, rt):
        held = {}

        def main():
            ch = yield MakeChan(0)

            def sender():
                payload = yield Alloc(Box("value"))
                held["payload"] = payload
                yield Send(ch, payload)

            held["g"] = (yield Go(sender))
            yield Sleep(10 * MICROSECOND)

        rt.spawn_main(main)
        rt.run(until_ns=100 * MICROSECOND)
        assert held["payload"] in set(held["g"].stack_heap_refs())

    def test_block_site_and_stack_trace(self, rt):
        held = {}

        def main():
            ch = yield MakeChan(0)

            def sender():
                yield Send(ch, 1)

            held["g"] = (yield Go(sender))
            yield Sleep(10 * MICROSECOND)

        rt.spawn_main(main)
        rt.run(until_ns=100 * MICROSECOND)
        g = held["g"]
        assert "test_goroutine.py" in g.block_site()
        assert any("sender" in frame for frame in g.stack_trace())

    def test_dead_goroutine_has_no_stack(self, rt):
        def main():
            yield Sleep(MICROSECOND)

        run_to_end(rt, main)
        g = rt.sched.main_g
        assert g.block_site() == "<no stack>"
        assert list(g.stack_heap_refs()) == []


class TestCleanup:
    def test_cleanup_after_deadlock_resets_everything(self):
        g = Goroutine(goid=5)

        def body():
            yield None

        gen = body()
        g.bind(gen, go_site="x", parent_goid=1)
        g.status = GStatus.PENDING_RECLAIM
        g.wait_reason = WaitReason.SELECT
        g.blocked_on = (EPSILON,)
        g.masked = True
        sd = Sudog(g, None, None, is_send=False)
        g.sudogs = [sd]
        g.cleanup_after_deadlock()
        assert g.status == GStatus.DEAD
        assert g.gen is None
        assert not g.sudogs and g.blocked_on == ()
        assert not g.masked
        assert not sd.active
        assert g.stack_bytes == 0

    def test_scan_work_scales_with_stack(self):
        g = Goroutine(goid=1)
        g.stack_bytes = 8192
        assert g.scan_work == 32
        g.stack_bytes = 0
        assert g.scan_work == 0
