"""Behavioral-type engine: verdicts and edge cases.

The engine (repro.staticcheck.behavior) abstracts goroutine bodies into
forkable trace types and explores their synchronous composition; each
channel gets PROVEN (leak-free), POTENTIAL (a definite counterexample
trace), or UNKNOWN (sound give-up).  These tests pin the verdicts on the
tricky corners — select-with-default, nil-channel arms, close-then-recv
drains, buffered capacity, recursive spawns.
"""

import pytest

from repro.staticcheck.behavior import (
    POTENTIAL,
    PROVEN,
    UNPROVEN,
    analyze_callable_behavior,
)
from repro.runtime.instructions import (
    Close,
    Go,
    MakeChan,
    Recv,
    RecvCase,
    Select,
    Send,
    SendCase,
    Work,
)


def _verdict_by_label(analysis, label):
    for v in analysis.verdicts:
        if v.label == label:
            return v
    raise AssertionError(
        f"no channel labeled {label!r}; have "
        f"{[v.label for v in analysis.verdicts]}")


class TestCoreVerdicts:
    def test_paired_rendezvous_is_proven(self):
        def body():
            done = yield MakeChan(0, label="done")

            def worker(ch=done):
                yield Send(ch, 1)

            yield Go(worker)
            yield Recv(done)

        analysis = analyze_callable_behavior(body)
        v = _verdict_by_label(analysis, "done")
        assert v.verdict == PROVEN
        assert not v.counterexample

    def test_orphan_sender_is_potential_with_counterexample(self):
        def body():
            orphan = yield MakeChan(0, label="orphan")

            def worker(ch=orphan):
                yield Send(ch, 1)

            yield Go(worker)

        analysis = analyze_callable_behavior(body)
        v = _verdict_by_label(analysis, "orphan")
        assert v.verdict == POTENTIAL
        # The counterexample is a concrete trace ending with the stuck
        # send — the static analog of GOLF's leak report.
        assert v.counterexample
        assert any("send" in line for line in v.counterexample)


class TestEdgeCases:
    def test_select_with_default_never_blocks(self):
        """A send guarded by a default arm may drop the value but can
        never strand the sender: proven."""

        def body():
            best = yield MakeChan(0, label="best-effort")

            def worker(ch=best):
                yield Select([SendCase(ch, 1)], default=True)

            yield Go(worker)
            # Main may or may not be listening; the default arm makes
            # the worker safe either way.
            yield Select([RecvCase(best)], default=True)

        analysis = analyze_callable_behavior(body)
        assert _verdict_by_label(analysis, "best-effort").verdict == PROVEN

    def test_nil_channel_arm_is_not_proven(self):
        """A select whose only live arm is a nil channel blocks
        forever; the engine must not certify the channel feeding it."""

        def body():
            ch = yield MakeChan(0, label="guarded")

            def worker(c=ch):
                # A nil arm is folded away: this select has no enabled
                # arms and parks forever.
                yield Select([RecvCase(None)])
                yield Send(c, 1)

            yield Go(worker)
            yield Recv(ch)

        analysis = analyze_callable_behavior(body)
        v = _verdict_by_label(analysis, "guarded")
        assert v.verdict in (POTENTIAL, UNPROVEN)

    def test_close_then_recv_drain_is_proven(self):
        """Producers close; the consumer drains until closed-and-empty.
        The trace abstraction must model the drain as terminating."""

        def body():
            items = yield MakeChan(0, label="drained")

            def producer(ch=items):
                for _ in range(3):
                    yield Send(ch, 1)
                yield Close(ch)

            yield Go(producer)
            while True:
                _, ok = yield Recv(items)
                if not ok:
                    break

        analysis = analyze_callable_behavior(body)
        assert _verdict_by_label(analysis, "drained").verdict == PROVEN

    def test_buffered_capacity_absorbs_exact_fit(self):
        """Two sends into a capacity-2 channel with no receiver: the
        buffer absorbs both, so nothing blocks — proven."""

        def body():
            buf = yield MakeChan(2, label="fits")

            def worker(ch=buf):
                yield Send(ch, 1)
                yield Send(ch, 2)

            yield Go(worker)
            yield Work(5)

        analysis = analyze_callable_behavior(body)
        assert _verdict_by_label(analysis, "fits").verdict == PROVEN

    def test_buffered_capacity_overflow_is_potential(self):
        """Three sends into capacity 2 with no receiver: the third
        blocks forever — the count abstraction must catch it."""

        def body():
            buf = yield MakeChan(2, label="overflows")

            def worker(ch=buf):
                for _ in range(3):
                    yield Send(ch, 1)

            yield Go(worker)
            yield Work(5)

        analysis = analyze_callable_behavior(body)
        v = _verdict_by_label(analysis, "overflows")
        assert v.verdict == POTENTIAL
        assert v.counterexample

    def test_recursive_spawn_hits_unknown_not_proven(self):
        """Self-spawning bodies exceed the finite component bound; the
        engine must give up soundly rather than certify."""

        def body():
            ch = yield MakeChan(0, label="recursive")

            def worker(c=ch):
                yield Go(worker)
                yield Send(c, 1)

            yield Go(worker)
            yield Recv(ch)

        analysis = analyze_callable_behavior(body)
        assert _verdict_by_label(analysis, "recursive").verdict != PROVEN

