"""Combinators used by microbenchmark bodies.

All helpers are generator functions meant to be called with
``yield from`` inside a goroutine body.  Randomness comes from genuine
runtime non-determinism — the scheduler's select-case choice — never from
module-level RNG, so a benchmark's flakiness responds to the runtime seed
and core count the way real Go races do.
"""

from __future__ import annotations

from repro.runtime.instructions import (
    Go,
    MakeChan,
    Recv,
    RecvCase,
    Select,
    Send,
    Sleep,
    Work,
)


def after(ns: int):
    """``time.After(ns)``: a cap-1 channel that receives a tick at +ns.

    The timer goroutine sends into a buffered channel, so it never leaks
    even if nobody consumes the tick.
    """
    ch = yield MakeChan(1, label="timer")

    def timer():
        yield Sleep(ns)
        yield Send(ch, None)

    yield Go(timer, name="")
    return ch


def coin_flip():
    """One fair scheduler-driven coin flip (True/False).

    Implemented as a select over two ready channels: the runtime chooses
    a ready case uniformly at random.
    """
    heads = yield MakeChan(1)
    tails = yield MakeChan(1)
    yield Send(heads, True)
    yield Send(tails, False)
    _, value, _ = yield Select([RecvCase(heads), RecvCase(tails)])
    return value


#: Resolution of :func:`bernoulli`, a power of two.
DENOMINATOR = 1024


def bernoulli(numerator: int):
    """True with probability ``numerator / DENOMINATOR``.

    Draws ``log2(DENOMINATOR)`` coin flips to form a uniform integer and
    compares it against the numerator.
    """
    if not 0 <= numerator <= DENOMINATOR:
        raise ValueError("numerator out of range")
    draw = 0
    for _ in range(DENOMINATOR.bit_length() - 1):
        flip = yield from coin_flip()
        draw = (draw << 1) | (1 if flip else 0)
    return draw < numerator


def spawn_hogs(count: int, micros: int):
    """Spawn ``count`` goroutines that each monopolize a processor for
    ``micros`` microseconds of non-preemptible work."""

    def hog():
        yield Work(micros)

    for _ in range(count):
        yield Go(hog, name="")


def drain(ch, count: int):
    """Receive ``count`` messages from ``ch``."""
    for _ in range(count):
        yield Recv(ch)
