"""``time.Timer`` and ``time.Ticker`` analogs.

Forgetting ``Ticker.Stop()`` is the canonical *runaway live goroutine*
leak: the ticker goroutine sleeps and fires forever, keeping itself (and
anything its channel references) alive.  GOLF — correctly — never
reports it, while goleak flags it; the extended microbenchmarks use this
to exercise that boundary.

All helpers are generator functions composed with ``yield from``.
"""

from __future__ import annotations

from typing import List

from repro.runtime.channel import Channel
from repro.runtime.instructions import (
    Alloc,
    Go,
    MakeChan,
    Now,
    Select,
    Send,
    SendCase,
    Sleep,
)
from repro.runtime.objects import WORD_SIZE, HeapObject


class Ticker(HeapObject):
    """Delivers the current virtual time on ``ch`` every interval.

    ``stop()`` is a plain method (setting a flag the ticker goroutine
    observes on its next tick), exactly like ``time.Ticker.Stop`` — it
    does not drain the channel.
    """

    __slots__ = ("ch", "interval_ns", "stopped")
    kind = "ticker"

    def __init__(self, ch: Channel, interval_ns: int):
        super().__init__(size=3 * WORD_SIZE)
        self.ch = ch
        self.interval_ns = interval_ns
        self.stopped = False

    def stop(self) -> None:
        self.stopped = True

    def referents(self) -> List[HeapObject]:
        return [self.ch]


class Timer(HeapObject):
    """A one-shot timer delivering on ``ch`` after the duration."""

    __slots__ = ("ch", "stopped")
    kind = "timer"

    def __init__(self, ch: Channel):
        super().__init__(size=2 * WORD_SIZE)
        self.ch = ch
        self.stopped = False

    def stop(self) -> None:
        """Best-effort cancel; returns nothing (flag-based, like Go)."""
        self.stopped = True

    def referents(self) -> List[HeapObject]:
        return [self.ch]


def new_ticker(interval_ns: int):
    """``time.NewTicker``: returns a :class:`Ticker`.

    The tick channel has capacity 1 and ticks are dropped when the
    consumer lags, exactly like Go.  Use with ``yield from``.
    """
    if interval_ns <= 0:
        raise ValueError("ticker interval must be positive")
    ch = yield MakeChan(1, label="ticker.C")
    ticker = yield Alloc(Ticker(ch, interval_ns))

    def tick_loop():
        while not ticker.stopped:
            yield Sleep(ticker.interval_ns)
            if ticker.stopped:
                return
            now = yield Now()
            # Non-blocking send: drop the tick if the buffer is full.
            yield Select([SendCase(ch, now)], default=True)

    yield Go(tick_loop, name="ticker")
    return ticker


def new_timer(duration_ns: int):
    """``time.NewTimer``: returns a :class:`Timer` with a cap-1 channel.

    The firing goroutine never leaks: the buffered send always
    completes.  Use with ``yield from``.
    """
    if duration_ns < 0:
        raise ValueError("timer duration must be non-negative")
    ch = yield MakeChan(1, label="timer.C")
    timer = yield Alloc(Timer(ch))

    def fire():
        yield Sleep(duration_ns)
        if not timer.stopped:
            now = yield Now()
            yield Send(ch, now)

    yield Go(fire, name="timer")
    return timer
