"""Exhaustive interleaving tests: GOLF soundness over every schedule.

These distill the paper's soundness theorem to small programs and check
it under *all* reachable interleavings, not a random sample.
"""

import pytest

from repro import GolfConfig, Runtime
from repro.runtime.clock import MICROSECOND
from repro.runtime.goroutine import GStatus
from repro.runtime.instructions import (
    Go,
    MakeChan,
    Recv,
    RecvCase,
    RunGC,
    Select,
    Send,
    Sleep,
)
from repro.verify import ScriptedRandom, explore


class TestScriptedRandom:
    def test_default_decisions_are_zero(self):
        rng = ScriptedRandom([])
        assert rng.randrange(5) == 0
        assert rng.choice(["a", "b", "c"]) == "a"
        assert rng.trace == [(0, 5), (0, 3)]

    def test_script_replays(self):
        rng = ScriptedRandom([2, 1])
        assert rng.randrange(5) == 2
        assert rng.choice(["a", "b"]) == "b"

    def test_out_of_range_script_clamped(self):
        rng = ScriptedRandom([9])
        assert rng.randrange(3) == 2

    def test_non_branching_draws_fixed(self):
        rng = ScriptedRandom([])
        assert rng.uniform(2.0, 4.0) == 3.0
        assert rng.random() == 0.5
        assert rng.trace == []  # none of these branch


class TestExploreMechanics:
    def test_enumerates_both_select_outcomes(self):
        """A two-ready-case select: exploration must visit both."""
        def build():
            rt = Runtime(procs=1, seed=0, config=GolfConfig.baseline())
            picks = {}

            def main():
                a = yield MakeChan(1)
                b = yield MakeChan(1)
                yield Send(a, "a")
                yield Send(b, "b")
                _, value, _ = yield Select([RecvCase(a), RecvCase(b)])
                picks["value"] = value

            rt.spawn_main(main)
            return rt, lambda rt_, err: picks.get("value")

        result = explore(build, max_paths=200)
        outcomes = {outcome for _, outcome in result.outcomes}
        assert outcomes == {"a", "b"}
        assert not result.truncated

    def test_single_path_program_runs_once_per_tree_leaf(self):
        def build():
            rt = Runtime(procs=1, seed=0, config=GolfConfig.baseline())

            def main():
                ch = yield MakeChan(1)
                yield Send(ch, 1)
                value, _ = yield Recv(ch)

            rt.spawn_main(main)
            return rt, lambda rt_, err: "done"

        result = explore(build, max_paths=50)
        # Only trivial scheduling choices exist (one runnable goroutine),
        # so the tree is tiny.
        assert 1 <= result.paths_run <= 4
        assert result.violations == []

    def test_max_paths_truncates(self):
        def build():
            rt = Runtime(procs=2, seed=0, config=GolfConfig.baseline())

            def main():
                done = yield MakeChan(4)

                def worker(i):
                    yield Sleep(MICROSECOND)
                    yield Send(done, i)

                for i in range(4):
                    yield Go(worker, i)
                for _ in range(4):
                    yield Recv(done)

            rt.spawn_main(main)
            return rt, lambda rt_, err: None

        result = explore(build, max_paths=5)
        assert result.paths_run == 5
        assert result.truncated


class TestExhaustiveSoundness:
    def _no_soundness_violation(self, rt):
        """The tripwire: a SchedulerError would have been raised as an
        error; additionally, reported goroutines must be terminal."""
        reported = {r.goid for r in rt.reports}
        for g in rt.sched.allgs:
            if g.goid in reported:
                assert g.status in (GStatus.DEAD, GStatus.DEADLOCKED,
                                    GStatus.PENDING_RECLAIM), (
                    f"reported goroutine {g.goid} in {g.status}")
        return None

    def test_rescued_sender_never_reported_any_schedule(self):
        """Main always eventually receives: across every interleaving
        (including every GC placement), GOLF must never report."""
        def build():
            rt = Runtime(procs=2, seed=0, config=GolfConfig())

            def main():
                ch = yield MakeChan(0)

                def sender(c):
                    yield Send(c, 1)

                yield Go(sender, ch)
                yield RunGC()
                yield Recv(ch)
                yield RunGC()

            rt.spawn_main(main)
            return rt, lambda rt_, err: (rt_.reports.total(),
                                         str(err) if err else "ok")

        result = explore(build, check=self._no_soundness_violation,
                         max_paths=500)
        assert not result.truncated
        assert result.violations == []
        for path, (reports, status) in result.outcomes:
            assert reports == 0, f"false positive on path {path}"
            assert status == "ok"

    def test_genuine_leak_reported_on_every_schedule_with_gc(self):
        """A sender whose channel main drops: every interleaving that
        reaches the final GCs must report exactly one deadlock."""
        def build():
            rt = Runtime(procs=2, seed=0, config=GolfConfig())

            def main():
                ch = yield MakeChan(0)

                def sender(c):
                    yield Send(c, 1)

                yield Go(sender, ch)
                del ch
                yield Sleep(5 * MICROSECOND)  # let the sender park
                yield RunGC()
                yield RunGC()
                yield RunGC()

            rt.spawn_main(main)
            return rt, lambda rt_, err: rt_.reports.total()

        result = explore(build, check=self._no_soundness_violation,
                         max_paths=500)
        assert not result.truncated
        assert result.violations == []
        assert all(reports == 1 for _, reports in result.outcomes)

    def test_select_rescue_race_sound_in_all_orders(self):
        """A worker raced by a cancel path: whichever select case fires,
        in whatever order, no report may name a goroutine that later
        runs (checked by the wake tripwire + terminal-state check)."""
        def build():
            rt = Runtime(procs=2, seed=0, config=GolfConfig())

            def main():
                work = yield MakeChan(1)
                cancel = yield MakeChan(1)
                yield Send(work, "w")
                yield Send(cancel, "c")
                results = yield MakeChan(0)

                def worker(out):
                    yield Send(out, "done")

                index, _, _ = yield Select(
                    [RecvCase(work), RecvCase(cancel)])
                yield Go(worker, results)
                yield RunGC()  # worker live here: results is on our stack
                if index == 0:
                    yield Recv(results)  # rescue
                # index == 1: abandon the worker (a real leak)
                del results
                yield Sleep(5 * MICROSECOND)
                yield RunGC()
                yield RunGC()

            rt.spawn_main(main)
            return rt, lambda rt_, err: rt_.reports.total()

        result = explore(build, check=self._no_soundness_violation,
                         max_paths=1000)
        assert result.violations == []
        outcome_counts = {reports for _, reports in result.outcomes}
        # Both worlds are reachable: rescued (0 reports) and leaked (1).
        assert outcome_counts == {0, 1}
