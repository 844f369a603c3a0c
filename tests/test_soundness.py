"""Soundness tests: GOLF must never report a semantically live goroutine.

The paper's central claim (section 4.3): ``LIVE(g) => LIVE+(g)``.  The
scheduler enforces the contrapositive at runtime — any wakeup delivered
to a goroutine in a reported-deadlocked state raises ``SchedulerError``
— so these tests run programs whose blocked goroutines are *eventually*
rescued through ever more indirect reference paths, force GC cycles at
adversarial moments, and require (a) no report, (b) clean completion.
"""

import functools
from types import SimpleNamespace

import pytest

from repro import GolfConfig, Runtime
from repro.runtime.clock import MICROSECOND, MILLISECOND
from repro.runtime.instructions import (
    Alloc,
    Go,
    Lock,
    MakeChan,
    NewMutex,
    NewWaitGroup,
    Recv,
    RunGC,
    Send,
    SetGlobal,
    Sleep,
    Unlock,
    WgAdd,
    WgDone,
    WgWait,
)
from repro.runtime.objects import Box, Struct
from repro.runtime.scheduler import SchedulerError
from tests.conftest import run_to_end


def _assert_clean(rt, main):
    status = run_to_end(rt, main)
    assert status == "main-exited"
    assert rt.reports.total() == 0, (
        f"sound detector must not report: {list(rt.reports)}"
    )


class TestEventuallyRescued:
    def test_late_receive_direct(self, rt):
        def main():
            ch = yield MakeChan(0)

            def sender():
                yield Send(ch, 1)

            yield Go(sender)
            yield Sleep(50 * MICROSECOND)
            yield RunGC()  # sender blocked, but ch is on main's stack
            yield Recv(ch)

        _assert_clean(rt, main)

    def test_rescue_through_heap_indirection(self, rt):
        def main():
            ch = yield MakeChan(0)
            holder = yield Alloc(Struct(inner=None))
            inner = yield Alloc(Box(ch))
            holder["inner"] = inner
            del ch, inner  # only reachable via holder -> inner -> ch

            def blocked():
                target = holder["inner"].value
                yield Send(target, "msg")

            yield Go(blocked)
            yield Sleep(50 * MICROSECOND)
            yield RunGC()
            yield Recv(holder["inner"].value)

        _assert_clean(rt, main)

    def test_rescue_through_global(self, rt):
        def main():
            ch = yield MakeChan(0)
            yield SetGlobal("rescue.ch", ch)
            del ch

            def sender():
                from repro.runtime.instructions import GetGlobal
                target = yield GetGlobal("rescue.ch")
                yield Send(target, 1)

            yield Go(sender)
            yield Sleep(50 * MICROSECOND)
            yield RunGC()
            from repro.runtime.instructions import GetGlobal
            target = yield GetGlobal("rescue.ch")
            yield Recv(target)

        _assert_clean(rt, main)

    def test_rescue_through_chain_of_blocked_goroutines(self, rt):
        def main():
            head = yield MakeChan(0)

            def stage(src, depth):
                if depth > 0:
                    dst = yield MakeChan(0)
                    yield Go(stage, dst, depth - 1)
                    value, _ = yield Recv(src)
                    yield Send(dst, value)
                else:
                    yield Recv(src)

            yield Go(stage, head, 5)
            yield Sleep(50 * MICROSECOND)
            yield RunGC()  # whole chain blocked but reachable via head
            yield Send(head, "flow")
            yield Sleep(50 * MICROSECOND)

        _assert_clean(rt, main)

    def test_rescue_after_many_gc_cycles(self, rt):
        def main():
            ch = yield MakeChan(0)

            def sender():
                yield Send(ch, 1)

            yield Go(sender)
            for _ in range(5):
                yield Sleep(20 * MICROSECOND)
                yield RunGC()
            yield Recv(ch)

        _assert_clean(rt, main)

    def test_mutex_holder_eventually_unlocks(self, rt):
        def main():
            mu = yield NewMutex()
            done = yield MakeChan(1)
            yield Lock(mu)

            def contender():
                yield Lock(mu)
                yield Unlock(mu)
                yield Send(done, ())

            yield Go(contender)
            yield Sleep(30 * MICROSECOND)
            yield RunGC()  # contender blocked; mu on main's stack: live
            yield Unlock(mu)
            yield Recv(done)

        _assert_clean(rt, main)

    def test_waitgroup_released_after_gc(self, rt):
        def main():
            wg = yield NewWaitGroup()
            yield WgAdd(wg, 1)
            done = yield MakeChan(1)

            def waiter():
                yield WgWait(wg)
                yield Send(done, ())

            yield Go(waiter)
            yield Sleep(30 * MICROSECOND)
            yield RunGC()
            yield WgDone(wg)
            yield Recv(done)

        _assert_clean(rt, main)

    def test_value_in_channel_buffer_keeps_target_live(self, rt):
        """A channel riding inside another channel's buffer is reachable
        through that buffer, so its blocked sender must stay live and be
        rescuable by whoever later drains the carrier."""
        def main():
            inner = yield MakeChan(0)
            carrier = yield MakeChan(1)
            yield Send(carrier, inner)

            def sender():
                yield Send(inner, "x")

            yield Go(sender)
            del inner  # now only reachable via the carrier's buffer
            yield Sleep(30 * MICROSECOND)
            yield RunGC()
            target, _ = yield Recv(carrier)
            yield Recv(target)  # rescue

        _assert_clean(rt, main)

    def test_concurrent_gc_during_handoff_storm(self, rt):
        """GC forced between every hop of a message relay: every blocked
        goroutine is always reachable from the live relay chain."""
        def main():
            chans = []
            for _ in range(6):
                ch = yield MakeChan(0)
                chans.append(ch)

            def relay(src, dst):
                value, _ = yield Recv(src)
                yield Send(dst, value)

            for i in range(5):
                yield Go(relay, chans[i], chans[i + 1])
            gc_driver_done = yield MakeChan(1)

            def gc_driver():
                for _ in range(8):
                    yield Sleep(5 * MICROSECOND)
                    yield RunGC()
                yield Send(gc_driver_done, ())

            yield Go(gc_driver)
            yield Sleep(20 * MICROSECOND)
            yield Send(chans[0], "token")
            value, _ = yield Recv(chans[5])
            assert value == "token"
            yield Recv(gc_driver_done)

        _assert_clean(rt, main)


class TestReclaimIsFinal:
    def test_reclaimed_goroutine_cannot_be_woken(self, rt):
        """Once GOLF reclaims a goroutine, nothing can resurrect it; the
        channel it waited on is simply gone."""
        def main():
            ch = yield MakeChan(0)

            def sender(c):
                yield Send(c, 1)

            yield Go(sender, ch, name="goner")
            del ch
            yield Sleep(20 * MICROSECOND)
            yield RunGC()
            yield RunGC()
            yield Sleep(20 * MICROSECOND)

        status = run_to_end(rt, main)
        assert status == "main-exited"
        assert rt.reports.total() == 1


# ---------------------------------------------------------------------------
# The carrier probe (ROADMAP item 1): a live worker holds the only
# reference to a channel through a Python carrier the stack scan must see
# ---------------------------------------------------------------------------
#
# Receiver R parks on c2.  Worker W parks on c1 and holds c2 only through
# one carrier; main drops c2, runs two GC cycles and then sends on c1, so
# W wakes and sends ``late`` on c2 through the carrier.  R can run again,
# so a sound detector never reports it.  Each carrier is built by a
# module-level function, outside main's frame: a closure built inside
# main would share main's cell for c2 and keep it reachable from main.


def _receiver(ch, out):
    value, _ = yield Recv(ch)
    out.append(value)


def _tuple_carrier(ch):
    return (ch,)


def _closure_carrier(ch):
    return lambda: Send(ch, "late")


def _default_arg_carrier(ch):
    def send(target=ch):
        return Send(target, "late")
    return send


def _partial_carrier(ch):
    return functools.partial(Send, ch, "late")


def _send_default_carrier(ch):
    def send(instr=Send(ch, "late")):
        return instr
    return send


def _object_carrier(ch):
    return SimpleNamespace(ch=ch)


def _iterator_carrier(ch):
    return [None, ch]


def _no_carrier(ch):
    return None


def _send_via_tuple(c1, carrier):
    yield Recv(c1)
    yield Send(carrier[0], "late")


def _send_via_call(c1, carrier):
    yield Recv(c1)
    yield carrier()


def _send_via_attribute(c1, carrier):
    yield Recv(c1)
    yield Send(carrier.ch, "late")


def _send_via_iterator(c1, carrier):
    # Parked on c1 with ``ch`` None: the list copy holding c2 is held
    # only by the loop's iterator.
    for ch in list(carrier):
        carrier = None
        if ch is None:
            yield Recv(c1)
        else:
            yield Send(ch, "late")


def _wait_on_c1(c1, carrier):
    yield Recv(c1)


_ITEM_1 = ("ROADMAP item 1: the stack scan reads named locals only and "
           "scan_into treats functions, partials, instructions, iterators "
           "and plain objects as opaque, so GOLF condemns a receiver a "
           "live worker will still send to")

CARRIERS = {
    "tuple": (_tuple_carrier, _send_via_tuple),
    "closure": (_closure_carrier, _send_via_call),
    "default-argument": (_default_arg_carrier, _send_via_call),
    "partial": (_partial_carrier, _send_via_call),
    "send-default": (_send_default_carrier, _send_via_call),
    "object-attribute": (_object_carrier, _send_via_attribute),
    "for-iterator": (_iterator_carrier, _send_via_iterator),
}
SOUND_CARRIERS = {"tuple"}


def _carrier_params(raises):
    return [pytest.param(name, marks=() if name in SOUND_CARRIERS else
                         pytest.mark.xfail(strict=True, raises=raises,
                                           reason=_ITEM_1))
            for name in CARRIERS]


def run_probe(build, worker, config):
    """Run the probe; returns ``(status, what R received, reports)``."""
    out = []

    def main():
        c1 = yield MakeChan(0)
        c2 = yield MakeChan(0)
        yield Go(_receiver, c2, out)
        yield Go(worker, c1, build(c2))
        del c2
        yield Sleep(50 * MICROSECOND)
        yield RunGC()
        yield RunGC()
        yield Send(c1, "go")
        yield Sleep(50 * MICROSECOND)

    rt = Runtime(procs=2, seed=7, config=config)
    status = run_to_end(rt, main)
    return status, out, rt.reports.total()


class TestCarriers:
    @pytest.mark.parametrize("carrier", _carrier_params(SchedulerError))
    def test_monitor_only_reports_no_live_receiver(self, carrier):
        status, out, reports = run_probe(*CARRIERS[carrier],
                                         GolfConfig.monitor_only())
        assert (status, out, reports) == ("main-exited", ["late"], 0)

    @pytest.mark.parametrize("carrier", _carrier_params(AssertionError))
    def test_recovery_keeps_the_baseline_output(self, carrier):
        baseline = run_probe(*CARRIERS[carrier], GolfConfig.baseline())
        assert baseline == ("main-exited", ["late"], 0)
        assert run_probe(*CARRIERS[carrier], GolfConfig()) == baseline

    def test_the_probe_condemns_a_receiver_nobody_holds(self):
        """Non-vacuity: without a carrier R really is stuck, and the
        probe sees GOLF report it."""
        status, out, reports = run_probe(_no_carrier, _wait_on_c1,
                                         GolfConfig())
        assert (status, out, reports) == ("main-exited", [], 1)
