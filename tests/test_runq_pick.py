"""The run-queue pick is ``Random.randrange``, drawn in place.

``Scheduler.run`` no longer calls ``rng.randrange(len(runq))``: it spells
CPython's ``_randbelow_with_getrandbits`` inline on a ``getrandbits``
bound once per ``run()``.  Every seeded result of the repository rests on
that being the same stream, so it is pinned here three ways, none of them
a stopwatch: the algorithm against ``random.Random.randrange`` (the
tripwire for a CPython that changes ``_randbelow``), the scheduler's own
loop against a generator that only offers ``randrange``, and the scripted
generator of ``repro.verify``, which has no bits to give and must keep
being asked for one decision over the queue length.
"""

from __future__ import annotations

import random

import pytest

from repro import GolfConfig, Runtime
from repro.runtime.instructions import Go, Gosched, MakeChan, Recv, Send
from repro.trace import events as ev
from repro.verify import ScriptedRandom


def _pick(getrandbits, n: int) -> int:
    """The four lines of ``Scheduler.run``'s pick."""
    k = n.bit_length()
    idx = getrandbits(k)
    while idx >= n:
        idx = getrandbits(k)
    return idx


@pytest.mark.parametrize("seed", [7, 11])
def test_in_place_draw_is_randrange_value_for_value(seed):
    sizes = random.Random(seed ^ 0x51CE)
    inline, stdlib = random.Random(seed), random.Random(seed)
    getrandbits = inline.getrandbits
    for i in range(200_000):
        # Mostly the short queues a scheduler sees, every n up to 64.
        n = sizes.randrange(1, 4) if i % 2 else sizes.randrange(1, 65)
        assert _pick(getrandbits, n) == stdlib.randrange(n), (i, n)
    assert inline.getstate() == stdlib.getstate()


# -- the scheduler's own loop -------------------------------------------------


class _RandrangeOnly:
    """A seeded ``random.Random`` that offers no ``getrandbits``: the
    run loop has to ask it for ``randrange(n)``, CPython's own."""

    def __init__(self, seed: int):
        self.inner = random.Random(seed)
        self.randrange = self.inner.randrange
        self.random = self.inner.random
        self.choice = self.inner.choice


def _fan_out(width: int, laps: int):
    """``width`` goroutines that yield ``laps`` times each: run queues
    of every length from ``width`` down to one."""
    def main():
        done = yield MakeChan(width)

        def worker(i):
            for _ in range(laps):
                yield Gosched()
            yield Send(done, i)

        for i in range(width):
            yield Go(worker, i)
        for _ in range(width):
            yield Recv(done)
    return main


def _run(width: int, procs: int, seed: int, rng=None):
    rt = Runtime(procs=procs, seed=seed, config=GolfConfig.baseline())
    if rng is not None:
        rt.sched.rng = rng
    rt.enable_tracing()
    rt.spawn_main(_fan_out(width, laps=6))
    rt.run()
    slices = [r for r in rt.tracer.records if r[1] == ev.INSTR]
    rt.shutdown()
    return rt, slices


@pytest.mark.parametrize("procs", [1, 2, 4])
@pytest.mark.parametrize("seed", [7, 11])
def test_run_loop_picks_as_randrange_does(procs, seed):
    rt, slices = _run(64, procs, seed)
    stdlib = _RandrangeOnly(seed)
    _, expected = _run(64, procs, seed, rng=stdlib)
    assert len(slices) > 64 * 6
    assert slices == expected
    assert rt.sched.rng.getstate() == stdlib.inner.getstate()


# -- the scripted generator keeps its one decision per pick ---------------------


class _WatchingScript(ScriptedRandom):
    """Notes the run-queue length each time it is asked for a pick."""

    def __init__(self, script, sched):
        super().__init__(script)
        self.sched = sched
        self.runq_lengths = []

    def randrange(self, stop: int) -> int:
        self.runq_lengths.append(len(self.sched.runq))
        return super().randrange(stop)


@pytest.mark.parametrize("procs", [1, 3])
def test_scripted_rng_records_one_decision_per_pick(procs):
    rt = Runtime(procs=procs, seed=0, config=GolfConfig.baseline())
    rng = _WatchingScript([0, 1, 2, 1, 0, 3], rt.sched)
    rt.sched.rng = rng
    starts = []
    start_instruction = rt.sched._start_instruction

    def counting_start(p, g):
        starts.append(g.goid)
        start_instruction(p, g)

    rt.sched._start_instruction = counting_start
    rt.spawn_main(_fan_out(5, laps=3))
    rt.run()
    rt.shutdown()
    # No select in the program: every decision is a pick, and every
    # pick — the one-goroutine queues too — is a decision.
    assert len(rng.trace) == len(starts) > 5 * 3
    assert [domain for _, domain in rng.trace] == rng.runq_lengths
    assert max(rng.runq_lengths) >= 3
    assert 1 in rng.runq_lengths
