"""Tests for address obfuscation (paper, section 5.4)."""

from repro import GolfConfig, Runtime
from repro.core import masking
from repro.core.detector import detect
from repro.gc.heap import Heap
from repro.runtime.clock import MICROSECOND
from repro.runtime.goroutine import Goroutine, GStatus
from repro.runtime.instructions import Go, Lock, NewMutex, Sleep
from repro.runtime.waitreason import WaitReason
from tests.conftest import run_to_end


class TestMaskArithmetic:
    def test_mask_sets_high_bit(self):
        assert masking.mask_addr(0x1000) == (1 << 63) | 0x1000

    def test_mask_is_idempotent(self):
        once = masking.mask_addr(0x42)
        assert masking.mask_addr(once) == once

    def test_unmask_roundtrip(self):
        addr = 0xDEADBEEF
        assert masking.unmask_addr(masking.mask_addr(addr)) == addr

    def test_is_masked(self):
        assert masking.is_masked(masking.mask_addr(7))
        assert not masking.is_masked(7)


class TestGoroutineMasking:
    """The mask bits ``detector.detect`` leaves behind: only deadlock
    candidates are hidden from marking."""

    def _blocked(self, reason):
        g = Goroutine(goid=1)
        g.status = GStatus.WAITING
        g.wait_reason = reason
        return g

    def _detect(self, goroutines):
        heap = Heap()
        heap.begin_cycle()
        return detect(heap, goroutines)

    def test_detectable_waits_masked(self):
        g = self._blocked(WaitReason.CHAN_SEND)
        assert self._detect([g]).deadlocked == [g]
        assert g.masked

    def test_sleep_not_masked(self):
        g = self._blocked(WaitReason.SLEEP)
        assert self._detect([g]).deadlocked == []
        assert not g.masked

    def test_system_goroutines_not_masked(self):
        g = self._blocked(WaitReason.CHAN_RECEIVE)
        g.is_system = True
        assert self._detect([g]).deadlocked == []
        assert not g.masked

    def test_unmask_all(self):
        gs = [self._blocked(WaitReason.CHAN_SEND) for _ in range(3)]
        self._detect(gs)
        assert all(g.masked for g in gs)
        masking.unmask_all(gs)
        assert not any(g.masked for g in gs)


class TestSemaTableMaskingIntegration:
    def test_golf_runtime_stores_masked_keys(self):
        rt = Runtime(procs=2, seed=1, config=GolfConfig())

        def main():
            mu = yield NewMutex()
            yield Lock(mu)

            def contender():
                yield Lock(mu)

            yield Go(contender)
            yield Sleep(50 * MICROSECOND)

        run_to_end(rt, main)
        keys = rt.sched.semtable.keys()
        assert keys, "contender should be parked in the semaphore table"
        assert all(masking.is_masked(k) for k in keys)

    def test_baseline_runtime_stores_plain_keys(self):
        rt = Runtime(procs=2, seed=1, config=GolfConfig.baseline())

        def main():
            mu = yield NewMutex()
            yield Lock(mu)

            def contender():
                yield Lock(mu)

            yield Go(contender)
            yield Sleep(50 * MICROSECOND)

        run_to_end(rt, main)
        keys = rt.sched.semtable.keys()
        assert keys
        assert not any(masking.is_masked(k) for k in keys)

    def test_masks_cleared_after_cycle(self):
        rt = Runtime(procs=2, seed=1, config=GolfConfig())

        def main():
            from repro.runtime.instructions import MakeChan, Recv, Send
            ch = yield MakeChan(0)

            def live_blocked():
                yield Recv(ch)

            yield Go(live_blocked)
            yield Sleep(20 * MICROSECOND)
            from repro.runtime.instructions import RunGC
            yield RunGC()
            yield Send(ch, 1)  # main still holds ch: goroutine was live

        run_to_end(rt, main)
        assert not any(g.masked for g in rt.sched.allgs)
