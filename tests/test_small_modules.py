"""Unit coverage for the small leaf modules: errors, waitreason,
instructions, helpers, clock."""

import pytest

from repro import errors
from repro.runtime import instructions as ins
from repro.runtime.channel import Channel
from repro.runtime.clock import (
    Clock,
    DAY,
    HOUR,
    MICROSECOND,
    MILLISECOND,
    MINUTE,
    SECOND,
)
from repro.runtime.objects import Box
from repro.runtime.waitreason import WaitReason


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(errors.GoPanic, errors.ReproError)
        assert issubclass(errors.SendOnClosedChannel, errors.GoPanic)
        assert issubclass(errors.GlobalDeadlockError,
                          errors.FatalRuntimeError)
        assert issubclass(errors.SchedulerError, errors.FatalRuntimeError)

    def test_panic_messages_match_go(self):
        assert errors.SendOnClosedChannel().message == (
            "send on closed channel")
        assert errors.CloseOfClosedChannel().message == (
            "close of closed channel")
        assert errors.NegativeWaitGroupCounter().message == (
            "sync: negative WaitGroup counter")
        assert "unlock of unlocked" in errors.UnlockOfUnlockedMutex().message

    def test_global_deadlock_carries_count(self):
        err = errors.GlobalDeadlockError(3)
        assert err.num_goroutines == 3
        assert "all goroutines are asleep" in str(err)


class TestWaitReason:
    def test_every_reason_classified(self):
        for reason in WaitReason:
            assert isinstance(reason.is_detectable, bool)

    def test_channel_and_sync_reasons_detectable(self):
        for reason in (WaitReason.CHAN_SEND, WaitReason.CHAN_RECEIVE,
                       WaitReason.SELECT, WaitReason.SYNC_MUTEX_LOCK,
                       WaitReason.SYNC_WAITGROUP_WAIT,
                       WaitReason.SYNC_COND_WAIT, WaitReason.SEMACQUIRE,
                       WaitReason.NIL_CHAN_SEND):
            assert reason.is_detectable, reason

    def test_external_reasons_not_detectable(self):
        for reason in (WaitReason.SLEEP, WaitReason.IO_WAIT,
                       WaitReason.SYSCALL, WaitReason.GC_WORKER_IDLE,
                       WaitReason.TIMER_GOROUTINE_IDLE):
            assert not reason.is_detectable, reason

    def test_values_read_like_go_wait_reasons(self):
        assert WaitReason.CHAN_SEND.value == "chan send"
        assert WaitReason.SELECT.value == "select"


class TestInstructionValidation:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ins.MakeChan(-1)

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            ins.Sleep(-1)

    def test_zero_work_rejected(self):
        with pytest.raises(ValueError):
            ins.Work(0)

    def test_select_rejects_non_cases(self):
        with pytest.raises(TypeError):
            ins.Select([object()])

    def test_heap_refs_of_send(self):
        ch = Channel(0)
        payload = Box(1)
        assert set(ins.Send(ch, payload).heap_refs()) == {ch, payload}
        assert ins.Send(None, 5).heap_refs() == ()

    def test_heap_refs_of_select_cover_cases(self):
        a, b = Channel(0), Channel(1)
        payload = Box(2)
        select = ins.Select([ins.RecvCase(a), ins.SendCase(b, payload)])
        assert set(select.heap_refs()) == {a, b, payload}

    def test_heap_refs_of_go_cover_heap_args(self):
        ch = Channel(0)

        def body(c, n):
            yield ins.Gosched()

        go = ins.Go(body, ch, 42)
        assert set(go.heap_refs()) == {ch}

    def test_base_instruction_has_no_refs(self):
        assert ins.Gosched().heap_refs() == ()
        assert ins.RunGC().heap_refs() == ()


class TestClock:
    def test_advance(self):
        clock = Clock()
        assert clock.advance(10) == 10
        assert clock.now == 10

    def test_advance_backwards_rejected(self):
        with pytest.raises(ValueError):
            Clock().advance(-1)

    def test_advance_to_is_monotone(self):
        clock = Clock()
        clock.advance_to(100)
        clock.advance_to(50)  # no-op
        assert clock.now == 100

    def test_duration_constants(self):
        assert MILLISECOND == 1000 * MICROSECOND
        assert SECOND == 1000 * MILLISECOND
        assert MINUTE == 60 * SECOND
        assert HOUR == 60 * MINUTE
        assert DAY == 24 * HOUR


class TestBernoulliHelper:
    def test_distribution_roughly_matches(self):
        """bernoulli(512/1024) through the real runtime ~ a fair coin."""
        from repro import Runtime
        from repro.microbench.helpers import bernoulli

        outcomes = []

        def main():
            for _ in range(64):
                value = yield from bernoulli(512)
                outcomes.append(value)

        rt = Runtime(procs=1, seed=11)
        rt.spawn_main(main)
        rt.run(max_instructions=1_000_000)
        heads = sum(outcomes)
        assert 16 <= heads <= 48  # very loose 50% band

    def test_extremes(self):
        from repro import Runtime
        from repro.microbench.helpers import bernoulli

        results = {}

        def main():
            results["never"] = yield from bernoulli(0)
            results["always"] = yield from bernoulli(1024)

        rt = Runtime(procs=1, seed=3)
        rt.spawn_main(main)
        rt.run(max_instructions=100_000)
        assert results == {"never": False, "always": True}

    def test_invalid_denominator(self):
        """The draw is ``log2(DENOMINATOR)`` coin flips, exact only for a
        power of two."""
        from repro.microbench.helpers import DENOMINATOR
        assert DENOMINATOR > 0 and DENOMINATOR & (DENOMINATOR - 1) == 0

    def test_out_of_range_numerator(self):
        from repro.microbench.helpers import bernoulli
        with pytest.raises(ValueError):
            list(bernoulli(2048))
