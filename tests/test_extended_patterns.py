"""Tests for the extended (modern-idiom) leak patterns.

Each pattern declares which sites GOLF must report and which only
goleak-style end-of-test inspection can see; the suite holds the
detector to exactly those verdicts.
"""

import pytest

from repro import GolfConfig, Runtime
from repro.microbench.extended import extended_benchmarks
from repro.runtime.clock import MILLISECOND
from repro.runtime.goroutine import GStatus
from repro.runtime.instructions import Go, RunGC, Sleep

ALL = extended_benchmarks()


def _run(bench, seed=11, procs=2):
    rt = Runtime(procs=procs, seed=seed, config=GolfConfig())

    def main():
        yield Go(bench.body)
        yield Sleep(2 * MILLISECOND)
        yield RunGC()
        yield RunGC()

    rt.spawn_main(main)
    rt.run(until_ns=200 * MILLISECOND, max_instructions=1_000_000)
    return rt


@pytest.mark.parametrize("bench", ALL, ids=lambda b: b.name)
class TestVerdicts:
    def test_golf_detects_exactly_the_declared_sites(self, bench):
        rt = _run(bench)
        detected = {r.label for r in rt.reports if r.label}
        assert detected == set(bench.golf_detects)

    def test_goleak_only_sites_linger_but_unreported(self, bench):
        rt = _run(bench)
        if not bench.goleak_only:
            pytest.skip("pattern has no goleak-only sites")
        lingering = {g.deadlock_label for g in rt.sched.allgs
                     if not g.is_system and g.status != GStatus.DEAD}
        for label in bench.goleak_only:
            assert label in lingering
        detected = {r.label for r in rt.reports}
        assert not (set(bench.goleak_only) & detected)

    def test_verdicts_stable_across_seeds(self, bench):
        for seed in (3, 17):
            rt = _run(bench, seed=seed)
            assert {r.label for r in rt.reports if r.label} == set(
                bench.golf_detects), f"seed={seed}"


class TestSpecifics:
    def _by_name(self, name):
        return next(b for b in ALL if b.name == name)

    def test_errgroup_leaks_all_three_tasks(self):
        rt = _run(self._by_name("ext/errgroup-no-wait"))
        assert rt.reports.total() == 3

    def test_abba_reports_mutex_wait_reasons(self):
        rt = _run(self._by_name("ext/abba"))
        reasons = {r.wait_reason for r in rt.reports}
        assert reasons == {"sync.Mutex.Lock"}
        assert rt.reports.total() == 2

    def test_abba_sematable_cleaned_after_recovery(self):
        rt = _run(self._by_name("ext/abba"))
        rt.gc_until_quiescent()
        assert len(rt.sched.semtable) == 0

    def test_sema_pool_reports_semacquire(self):
        rt = _run(self._by_name("ext/sema-pool"))
        (report,) = list(rt.reports)
        assert report.wait_reason == "semacquire"

    def test_ctx_timeout_leak_reclaimed_memory(self):
        rt = _run(self._by_name("ext/ctx-timeout"))
        rt.gc_until_quiescent()
        # The worker and its channel are gone.
        assert not [g for g in rt.sched.allgs
                    if g.status == GStatus.WAITING and not g.is_system]

    def test_suite_covers_both_kinds(self):
        assert any(b.golf_detects for b in ALL)
        assert any(b.goleak_only for b in ALL)
        names = [b.name for b in ALL]
        assert len(set(names)) == len(names) == 6
