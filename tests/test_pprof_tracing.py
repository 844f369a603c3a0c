"""Tests for goroutine profiles (pprof) and runtime tracing."""

from repro import GolfConfig, Runtime
from repro.runtime.clock import MICROSECOND
from repro.runtime.goroutine import GStatus
from repro.runtime.instructions import (
    Go,
    MakeChan,
    Recv,
    RunGC,
    Send,
    Sleep,
)
from repro.runtime.pprof import (
    format_goroutine_profile,
    format_stack_dump,
    goroutine_profile,
)
from tests.conftest import run_to_end


def _pool_runtime(rt, n=4):
    state = {}

    def main():
        jobs = yield MakeChan(0)
        state["jobs"] = jobs

        def worker():
            yield Recv(jobs)

        for _ in range(n):
            yield Go(worker, name="pool-worker")
        yield Sleep(20 * MICROSECOND)
        yield Sleep(100_000 * MICROSECOND)

    rt.spawn_main(main)
    rt.run(until_ns=100 * MICROSECOND)
    return state


class TestGoroutineProfile:
    def test_groups_identical_stacks(self, rt):
        _pool_runtime(rt, n=4)
        records = goroutine_profile(rt)
        pool = [r for r in records if r.count == 4]
        assert len(pool) == 1
        assert pool[0].wait_reason == "chan receive"
        assert len(pool[0].goids) == 4

    def test_profile_sorted_by_count(self, rt):
        _pool_runtime(rt, n=3)
        records = goroutine_profile(rt)
        counts = [r.count for r in records]
        assert counts == sorted(counts, reverse=True)

    def test_system_goroutines_hidden_by_default(self):
        rt = Runtime(procs=2, seed=1)
        rt.enable_periodic_gc(50 * MICROSECOND)
        _pool_runtime(rt, n=1)
        visible = goroutine_profile(rt)
        live = [g for g in rt.sched.allgs if g.status != GStatus.DEAD]
        assert any(g.is_system for g in live)
        assert sum(r.count for r in visible) == sum(
            1 for g in live if not g.is_system)

    def test_text_format(self, rt):
        _pool_runtime(rt, n=2)
        text = format_goroutine_profile(rt)
        assert text.startswith("goroutine profile: total ")
        assert "chan receive" in text
        assert "#\t" in text

    def test_dead_goroutines_absent(self, rt):
        def main():
            def quick():
                yield Sleep(MICROSECOND)

            yield Go(quick)
            yield Sleep(20 * MICROSECOND)

        run_to_end(rt, main)
        records = goroutine_profile(rt)
        assert sum(r.count for r in records) == 0


class TestGoroutineProfileEdgeStates:
    def _leak_one(self, rt, label="leaky-sender"):
        def main():
            ch = yield MakeChan(0)

            def sender(c):
                yield Send(c, 1)

            yield Go(sender, c := ch, name=label)
            del ch, c
            yield Sleep(20 * MICROSECOND)

        run_to_end(rt, main)

    def test_pending_reclaim_renders(self, rt):
        self._leak_one(rt)
        rt.gc()  # cycle 1: reported, scheduled for reclamation
        pending = [g for g in rt.sched.allgs
                   if g.status == GStatus.PENDING_RECLAIM]
        assert len(pending) == 1
        records = goroutine_profile(rt)
        states = {r.status for r in records}
        assert "pending-reclaim" in states
        text = format_goroutine_profile(rt)
        assert "pending-reclaim" in text
        assert "chan send" in text

    def test_deadlocked_kept_renders(self):
        rt = Runtime(procs=2, seed=7, config=GolfConfig.monitor_only())
        self._leak_one(rt)
        rt.gc()
        rt.gc()
        kept = [g for g in rt.sched.allgs
                if g.status == GStatus.DEADLOCKED]
        assert len(kept) == 1
        text = format_goroutine_profile(rt)
        assert "deadlocked" in text
        # The stack dump prints the wait reason (Go style), not the
        # status — the kept goroutine must still be listed.
        assert (f"goroutine {kept[0].trace_label} [chan send]"
                in format_stack_dump(rt))

    def test_panicking_goroutine_renders(self, rt):
        self._leak_one(rt)
        (victim,) = [g for g in rt.sched.allgs
                     if g.deadlock_label == "leaky-sender"]
        victim.panicking = RuntimeError("mid-unwind snapshot")
        text = format_goroutine_profile(rt)
        assert "chan send" in text
        assert format_stack_dump(rt)

    def test_labels_group_onto_one_record(self, rt):
        _pool_runtime(rt, n=4)
        (pool,) = [r for r in goroutine_profile(rt) if r.count == 4]
        assert pool.labels == ["pool-worker"] * 4

    def test_reclaimed_goroutine_leaves_profile(self, rt):
        self._leak_one(rt)
        rt.gc()
        rt.gc()  # cycle 2: reclaimed -> DEAD -> invisible
        states = {r.status for r in goroutine_profile(rt)}
        assert "pending-reclaim" not in states
        assert "deadlocked" not in states


class TestTracing:
    def _traced_leak_run(self):
        rt = Runtime(procs=2, seed=3, config=GolfConfig())
        tracer = rt.enable_tracing()

        def main():
            ch = yield MakeChan(0)

            def sender(c):
                yield Send(c, 1)

            yield Go(sender, c := ch, name="traced-leaker")
            del ch, c
            yield Sleep(20 * MICROSECOND)
            yield RunGC()
            yield RunGC()

        rt.spawn_main(main)
        rt.run(until_ns=100_000_000)
        return rt, tracer

    def test_lifecycle_events_recorded(self):
        rt, tracer = self._traced_leak_run()
        kinds = {e.kind for e in tracer.events}
        assert {"go-create", "go-park", "go-end",
                "gc-cycle", "partial-deadlock", "go-reclaim"} <= kinds

    def test_deadlock_event_names_goroutine(self):
        rt, tracer = self._traced_leak_run()
        (event,) = tracer.of_kind("partial-deadlock")
        assert "chan send" in event.detail
        reclaim_events = tracer.of_kind("go-reclaim")
        assert [e.goid for e in reclaim_events] == [event.goid]

    def test_per_goroutine_history(self):
        rt, tracer = self._traced_leak_run()
        (dl,) = tracer.of_kind("partial-deadlock")
        history = [e.kind for e in tracer.for_goroutine(dl.goid)]
        assert history[0] == "go-create"
        assert history[-1] == "go-reclaim"
        assert "go-park" in history

    def test_events_timestamped_monotonically(self):
        rt, tracer = self._traced_leak_run()
        times = [e.t_ns for e in tracer.events]
        assert times == sorted(times)

    def test_format_renders_lines(self):
        rt, tracer = self._traced_leak_run()
        text = tracer.format()
        assert text.count("\n") == len(tracer) - 1 + (tracer.dropped > 0)
        assert "ns]" in text

    def test_capacity_bound(self):
        rt = Runtime(procs=1, seed=1)
        tracer = rt.enable_tracing(capacity=10)

        def main():
            for _ in range(50):
                yield Sleep(MICROSECOND)

        rt.spawn_main(main)
        rt.run()
        assert len(tracer) == 10
        assert tracer.dropped > 0
        assert "dropped" in tracer.format()

    def test_tracing_off_by_default(self, rt):
        assert rt.tracer is None


class TestEventKindInterning:
    """The event vocabulary is interned at module load (hot-path
    overhaul): one shared object per kind, so tracer emits and kind
    filters compare by pointer."""

    def test_vocabulary_is_interned(self):
        import sys

        from repro.trace import events as ev

        for name in ev._KIND_NAMES:
            kind = getattr(ev, name)
            assert sys.intern(kind) is kind, name
        assert ev.VOCABULARY == frozenset(
            getattr(ev, name) for name in ev._KIND_NAMES)
        assert ev.VOCABULARY == {
            "go-create", "go-park", "go-wake", "go-end", "go-reclaim",
            "go-panic", "instr", "chan-make", "chan-send", "chan-recv",
            "chan-close", "select-resolve", "sema-acquire", "sema-release",
            "gc-phase", "gc-cycle", "barrier-shade", "partial-deadlock",
            "fault-inject", "daemon-start", "daemon-stop", "daemon-detect",
            "recovery-restart"}

    def test_emitted_kinds_are_the_shared_constants(self):
        from repro.trace import events as ev

        rt = Runtime(procs=1, seed=5)
        tracer = rt.enable_tracing()

        def main():
            ch = yield MakeChan(1)
            yield Send(ch, 1)
            yield Recv(ch)

        rt.spawn_main(main)
        rt.run()
        kinds = {e.kind for e in tracer.events}
        assert ev.CHAN_SEND in kinds and ev.CHAN_RECV in kinds
        for e in tracer.events:
            # identity, not equality: instrumentation sites must pass
            # the interned constants, never fresh literals
            assert any(e.kind is k for k in ev.VOCABULARY), e.kind
