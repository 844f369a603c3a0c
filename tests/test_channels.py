"""Unit tests for channel semantics (module level, no scheduler)."""

import pytest

from repro.errors import CloseOfClosedChannel, SendOnClosedChannel
from repro.runtime.channel import Channel, ZERO_VALUE
from repro.runtime.goroutine import Goroutine, Sudog


def _sudog(is_send=False, value=None, channel=None):
    g = Goroutine(goid=99)
    g.status = g.status  # placeholder; queue tests only need identity
    return Sudog(g, channel, value, is_send=is_send)


class TestBufferedChannel:
    def test_send_fills_buffer(self):
        ch = Channel(2)
        done, wakeups = ch.try_send(1)
        assert done and wakeups == []
        assert len(ch) == 1

    def test_send_blocks_when_full(self):
        ch = Channel(1)
        ch.try_send(1)
        done, _ = ch.try_send(2)
        assert not done

    def test_recv_drains_fifo(self):
        ch = Channel(3)
        for v in (1, 2, 3):
            ch.try_send(v)
        values = [ch.try_recv()[1] for _ in range(3)]
        assert values == [1, 2, 3]

    def test_recv_blocks_when_empty(self):
        done, _, _, _ = Channel(1).try_recv()
        assert not done

    def test_recv_unparks_waiting_sender_into_buffer(self):
        ch = Channel(1)
        ch.try_send("a")
        sender = _sudog(is_send=True, value="b", channel=ch)
        ch.enqueue_sender(sender)
        done, value, ok, wakeups = ch.try_recv()
        assert done and ok and value == "a"
        assert len(wakeups) == 1 and wakeups[0].sudog is sender
        assert list(ch.buffer) == ["b"]

    def test_can_send_and_recv(self):
        ch = Channel(1)
        assert ch.can_send() and not ch.can_recv()
        ch.try_send(1)
        assert not ch.can_send() and ch.can_recv()


class TestUnbufferedChannel:
    def test_send_blocks_without_receiver(self):
        done, _ = Channel(0).try_send(1)
        assert not done

    def test_send_hands_to_waiting_receiver(self):
        ch = Channel(0)
        receiver = _sudog(is_send=False, channel=ch)
        ch.enqueue_receiver(receiver)
        done, wakeups = ch.try_send("msg")
        assert done
        assert wakeups[0].sudog is receiver
        assert wakeups[0].result == ("msg", True)

    def test_recv_takes_from_waiting_sender(self):
        ch = Channel(0)
        sender = _sudog(is_send=True, value="msg", channel=ch)
        ch.enqueue_sender(sender)
        done, value, ok, wakeups = ch.try_recv()
        assert done and ok and value == "msg"
        assert wakeups[0].sudog is sender

    def test_inactive_sudogs_skipped(self):
        ch = Channel(0)
        stale = _sudog(is_send=True, value="old", channel=ch)
        stale.active = False
        fresh = _sudog(is_send=True, value="new", channel=ch)
        ch.enqueue_sender(stale)
        ch.enqueue_sender(fresh)
        done, value, ok, _ = ch.try_recv()
        assert done and value == "new"

    def test_parked_senders_drain_in_park_order(self):
        ch = Channel(0)
        senders = [_sudog(is_send=True, value=v, channel=ch)
                   for v in ("a", "b", "c")]
        for sd in senders:
            ch.enqueue_sender(sd)
        drained = [ch.try_recv() for _ in senders]
        assert [value for _, value, _, _ in drained] == ["a", "b", "c"]
        assert [w.sudog for *_, wakeups in drained for w in wakeups] == senders
        assert not ch.try_recv()[0]


class TestClose:
    def test_recv_on_closed_returns_zero(self):
        ch = Channel(0)
        ch.close()
        done, value, ok, _ = ch.try_recv()
        assert done and not ok and value is ZERO_VALUE

    def test_close_drains_buffer_first(self):
        ch = Channel(2)
        ch.try_send("x")
        ch.close()
        done, value, ok, _ = ch.try_recv()
        assert done and ok and value == "x"
        done, value, ok, _ = ch.try_recv()
        assert done and not ok

    def test_send_on_closed_panics(self):
        ch = Channel(1)
        ch.close()
        with pytest.raises(SendOnClosedChannel):
            ch.try_send(1)

    def test_double_close_panics(self):
        ch = Channel(0)
        ch.close()
        with pytest.raises(CloseOfClosedChannel):
            ch.close()

    def test_close_wakes_receivers_with_zero(self):
        ch = Channel(0)
        receivers = [_sudog(channel=ch) for _ in range(3)]
        for sd in receivers:
            ch.enqueue_receiver(sd)
        wakeups = ch.close()
        assert [w.sudog for w in wakeups] == receivers
        assert all(w.result == (ZERO_VALUE, False) for w in wakeups)

    def test_close_panics_blocked_senders(self):
        ch = Channel(0)
        sender = _sudog(is_send=True, value=1, channel=ch)
        ch.enqueue_sender(sender)
        wakeups = ch.close()
        assert len(wakeups) == 1
        assert isinstance(wakeups[0].exc, SendOnClosedChannel)

    def test_closed_channel_can_recv(self):
        ch = Channel(0)
        ch.close()
        assert ch.can_recv()
        assert ch.can_send()  # "completes" by panicking


class TestReferents:
    def test_buffered_heap_values_are_referents(self):
        from repro.runtime.objects import Box
        ch = Channel(2)
        payload = Box(1)
        ch.try_send(payload)
        assert payload in set(ch.referents())

    def test_parked_sender_value_is_referent(self):
        from repro.runtime.objects import Box
        ch = Channel(0)
        payload = Box(2)
        ch.enqueue_sender(_sudog(is_send=True, value=payload, channel=ch))
        assert payload in set(ch.referents())

    def test_blocked_goroutines_are_not_referents(self):
        ch = Channel(0)
        sd = _sudog(is_send=True, value=1, channel=ch)
        ch.enqueue_sender(sd)
        from repro.runtime.goroutine import Goroutine
        assert not any(isinstance(r, Goroutine) for r in ch.referents())

    def test_capacity_counts(self):
        ch = Channel(2)
        ch.try_send(1)
        sender = _sudog(is_send=True, value=2, channel=ch)
        ch.enqueue_sender(sender)
        assert ch.waiting_senders() == 1
        assert ch.waiting_receivers() == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Channel(-1)
