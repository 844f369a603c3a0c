"""Tests for Ticker/Timer and the errgroup analog."""

import pytest

from repro import Runtime
from repro.runtime.clock import MICROSECOND, MILLISECOND
from repro.runtime.errgroup import group_go, group_wait, new_group, with_context
from repro.runtime.goroutine import GStatus
from repro.runtime.instructions import (
    Go,
    MakeChan,
    Recv,
    Send,
    Sleep,
)
from repro.runtime.timers import new_ticker, new_timer
from tests.conftest import run_to_end


class TestTicker:
    def test_delivers_ticks(self, rt):
        ticks = []

        def main():
            ticker = yield from new_ticker(10 * MICROSECOND)
            for _ in range(3):
                t, ok = yield Recv(ticker.ch)
                ticks.append(t)
            ticker.stop()
            yield Sleep(30 * MICROSECOND)

        run_to_end(rt, main)
        assert len(ticks) == 3
        assert ticks == sorted(ticks)

    def test_stop_terminates_loop(self, rt):
        def main():
            ticker = yield from new_ticker(10 * MICROSECOND)
            yield Recv(ticker.ch)
            ticker.stop()
            yield Sleep(50 * MICROSECOND)

        run_to_end(rt, main)
        lingering = [g for g in rt.sched.allgs
                     if g.status != GStatus.DEAD and not g.is_system]
        assert lingering == []

    def test_ticks_dropped_when_consumer_lags(self, rt):
        def main():
            ticker = yield from new_ticker(5 * MICROSECOND)
            yield Sleep(100 * MICROSECOND)  # many intervals pass
            # Only one tick is buffered (cap 1), the rest were dropped.
            assert len(ticker.ch) == 1
            ticker.stop()
            yield Sleep(20 * MICROSECOND)

        assert run_to_end(rt, main) == "main-exited"

    def test_forgotten_stop_is_runaway_live_not_deadlock(self, rt):
        def main():
            ticker = yield from new_ticker(10 * MICROSECOND)
            yield Recv(ticker.ch)
            # forgot ticker.stop()

        run_to_end(rt, main)
        rt.gc_until_quiescent()
        assert rt.reports.total() == 0  # GOLF is (correctly) silent
        # The runaway loop still lingers: goleak's noisier categories
        # would flag it.
        assert any(not g.is_system and g.status != GStatus.DEAD
                   for g in rt.sched.allgs)

    def test_invalid_interval(self, rt):
        def main():
            yield from new_ticker(0)

        rt.spawn_main(main)
        with pytest.raises(ValueError):
            rt.run()


class TestTimer:
    def test_fires_once(self, rt):
        state = {}

        def main():
            timer = yield from new_timer(20 * MICROSECOND)
            t, ok = yield Recv(timer.ch)
            state["fired_at"] = t
            state["ok"] = ok

        run_to_end(rt, main)
        assert state["ok"] and state["fired_at"] >= 20 * MICROSECOND

    def test_stop_suppresses_firing(self, rt):
        def main():
            timer = yield from new_timer(20 * MICROSECOND)
            timer.stop()
            yield Sleep(50 * MICROSECOND)
            assert len(timer.ch) == 0

        assert run_to_end(rt, main) == "main-exited"

    def test_unread_timer_never_leaks(self, rt):
        def main():
            yield from new_timer(10 * MICROSECOND)
            yield Sleep(50 * MICROSECOND)
            # channel dropped unread: the cap-1 buffer absorbed the send

        run_to_end(rt, main)
        rt.gc_until_quiescent()
        assert rt.reports.total() == 0


class TestErrgroup:
    def test_wait_joins_all_tasks(self, rt):
        finished = []

        def main():
            group = yield from new_group()

            def task(i):
                yield Sleep((i + 1) * 5 * MICROSECOND)
                finished.append(i)
                return None

            for i in range(4):
                yield from group_go(group, task, i)
            err = yield from group_wait(group)
            finished.append(("err", err))

        run_to_end(rt, main)
        assert finished[-1] == ("err", None)
        assert sorted(finished[:-1]) == [0, 1, 2, 3]

    def test_first_error_wins(self, rt):
        state = {}

        def main():
            group = yield from new_group()

            def ok_task():
                yield Sleep(5 * MICROSECOND)
                return None

            def failing_task(msg, delay):
                yield Sleep(delay)
                return msg

            yield from group_go(group, ok_task)
            yield from group_go(group, failing_task, "first", 10 * MICROSECOND)
            yield from group_go(group, failing_task, "second", 30 * MICROSECOND)
            state["err"] = yield from group_wait(group)

        run_to_end(rt, main)
        assert state["err"] == "first"

    def test_with_context_cancels_on_error(self, rt):
        state = {}

        def main():
            group, ctx = yield from with_context()

            def failing():
                yield Sleep(10 * MICROSECOND)
                return "boom"

            def watcher():
                _, ok = yield Recv(ctx.done)
                state["cancelled_seen"] = True

            yield Go(watcher)
            yield from group_go(group, failing)
            state["err"] = yield from group_wait(group)
            yield Sleep(20 * MICROSECOND)

        run_to_end(rt, main)
        assert state["err"] == "boom"
        assert state.get("cancelled_seen") is True

    def test_wait_cancels_context_even_on_success(self, rt):
        state = {}

        def main():
            group, ctx = yield from with_context()

            def ok_task():
                yield Sleep(5 * MICROSECOND)
                return None

            yield from group_go(group, ok_task)
            yield from group_wait(group)
            state["err_after_wait"] = ctx.err

        run_to_end(rt, main)
        assert state["err_after_wait"] is not None  # ctx released

    def test_task_exception_crashes_like_panic(self, rt):
        def main():
            group = yield from new_group()

            def bad_task():
                yield Sleep(MICROSECOND)
                raise RuntimeError("task bug")

            yield from group_go(group, bad_task)
            yield from group_wait(group)

        rt.spawn_main(main)
        with pytest.raises(RuntimeError, match="task bug"):
            rt.run()
