"""Tests for the goleak and LeakProf comparators."""

from repro import GolfConfig, Runtime
from repro.baselines.goleak import CATEGORY_CONCURRENCY, find_leaks
from repro.baselines.leakprof import LeakProf
from repro.runtime.clock import MICROSECOND, MILLISECOND
from repro.runtime.instructions import Go, MakeChan, Recv, Send, Sleep
from tests.conftest import run_to_end


def _leaky_runtime(n_leaks=1, config=None, seed=2):
    rt = Runtime(procs=2, seed=seed, config=config or GolfConfig.baseline())

    def main():
        def sender(c):
            yield Send(c, 1)

        for _ in range(n_leaks):
            ch = yield MakeChan(0)
            yield Go(sender, ch, name="pool-leak")
        yield Sleep(50 * MICROSECOND)

    run_to_end(rt, main)
    return rt


class TestGoleak:
    def test_finds_lingering_blocked_goroutines(self):
        rt = _leaky_runtime(3)
        leaks = find_leaks(rt)
        assert len(leaks) == 3
        assert all(l.category == CATEGORY_CONCURRENCY for l in leaks)

    def test_clean_program_reports_nothing(self):
        rt = Runtime(procs=2, seed=1)

        def main():
            ch = yield MakeChan(0)

            def sender():
                yield Send(ch, 1)

            yield Go(sender)
            yield Recv(ch)

        run_to_end(rt, main)
        assert find_leaks(rt) == []

    def test_external_category_excluded_by_default(self):
        rt = Runtime(procs=2, seed=1)

        def main():
            def sleeper():
                yield Sleep(100 * MILLISECOND)

            yield Go(sleeper)
            yield Sleep(10 * MICROSECOND)

        run_to_end(rt, main)
        assert find_leaks(rt) == []

    def test_golf_reported_goroutines_still_count(self):
        rt = _leaky_runtime(2, config=GolfConfig.monitor_only())
        rt.gc()
        leaks = find_leaks(rt)
        assert len(leaks) == 2  # DEADLOCKED-kept are still lingering

    def test_dedup_key_matches_reports(self):
        rt = _leaky_runtime(2)
        keys = {l.dedup_key for l in find_leaks(rt)}
        assert len(keys) == 1  # same go site, same block site

    def test_system_goroutines_ignored(self):
        rt = Runtime(procs=2, seed=1)
        rt.enable_periodic_gc(10 * MILLISECOND)

        def main():
            yield Sleep(10 * MICROSECOND)

        run_to_end(rt, main)
        assert any(g.is_system for g in rt.sched.allgs)
        assert find_leaks(rt) == []


class TestLeakProf:
    def test_flags_high_concentration_site(self):
        rt = _leaky_runtime(12)
        prof = LeakProf()
        prof.sample(rt)
        findings = prof.findings()
        assert len(findings) == 1
        assert findings[0].max_blocked == 12

    def test_false_negative_below_threshold(self):
        rt = _leaky_runtime(3)  # a real leak...
        prof = LeakProf()
        prof.sample(rt)
        assert prof.findings() == []  # ...that LeakProf cannot see

    def test_false_positive_on_legitimate_worker_pool(self):
        """A healthy worker pool parked on its job channel crosses the
        threshold: LeakProf flags it even though nothing is leaked —
        exactly the unsoundness GOLF avoids."""
        rt = Runtime(procs=2, seed=4)
        state = {}

        def main():
            jobs = yield MakeChan(0)
            state["jobs"] = jobs

            def worker():
                while True:
                    job, ok = yield Recv(jobs)
                    if not ok:
                        return

            for _ in range(12):
                yield Go(worker)
            yield Sleep(10 * MILLISECOND)

        rt.spawn_main(main)
        rt.run(until_ns=MILLISECOND)  # pool is idle, parked on jobs
        prof = LeakProf()
        prof.sample(rt)
        assert len(prof.findings()) == 1  # false positive
        # GOLF, for contrast, correctly stays silent: the jobs channel is
        # reachable from main.
        rt.gc()
        assert rt.reports.total() == 0

    def test_multiple_samples_track_peak(self):
        rt = _leaky_runtime(11)
        prof = LeakProf()
        prof.sample(rt)
        prof.sample(rt)
        (finding,) = prof.findings()
        assert finding.samples_over == 2
