"""Tests for remaining facade surface: shutdown, summaries, rq1c fanout."""

from repro import GolfConfig, Runtime
from repro.experiments.rq1c import format_rq1c, run_rq1c
from repro.runtime.clock import MICROSECOND
from repro.runtime.instructions import Go, MakeChan, RunGC, Send, Sleep
from repro.service.production import ProductionConfig
from tests.conftest import run_to_end


def _leak_with_finally(rt, log):
    def main():
        ch = yield MakeChan(0)

        def sender(c):
            try:
                yield Send(c, 1)
            finally:
                log.append("deferred ran")

        yield Go(sender, ch, name="has-defer")
        del ch
        yield Sleep(20 * MICROSECOND)
        yield RunGC()
        yield RunGC()

    run_to_end(rt, main)


class TestShutdown:
    def test_deferred_code_never_runs_during_simulation(self, rt):
        log = []
        _leak_with_finally(rt, log)
        assert rt.reports.total() == 1
        assert log == []  # forced shutdown skipped the finally

    def test_shutdown_unwinds_retained_bodies(self, rt):
        log = []
        _leak_with_finally(rt, log)
        assert rt.sched._reclaimed_bodies
        rt.shutdown()
        assert rt.sched._reclaimed_bodies == []
        # The finally's *yield* was discarded; whether its Python-level
        # side effects ran at teardown is unobservable to the simulation.

    def test_shutdown_on_clean_runtime_is_noop(self, rt):
        def main():
            yield Sleep(MICROSECOND)

        run_to_end(rt, main)
        rt.shutdown()
        assert rt.sched._reclaimed_bodies == []


class TestReportSummary:
    def test_summary_groups_and_sorts(self, rt):
        def main():
            def sender(c):
                yield Send(c, 1)

            def receiver(c):
                from repro.runtime.instructions import Recv
                yield Recv(c)

            for _ in range(3):
                ch = yield MakeChan(0)
                yield Go(sender, ch, name="hot-site")
            ch2 = yield MakeChan(0)
            yield Go(receiver, ch2, name="cold-site")
            del ch, ch2
            yield Sleep(20 * MICROSECOND)
            yield RunGC()

        run_to_end(rt, main)
        text = rt.reports.summary_text()
        assert "4 partial deadlock report(s)" in text
        assert "2 distinct source location(s)" in text
        lines = text.splitlines()
        assert "3x" in lines[1]  # hottest site first
        assert "chan send" in lines[1]
        assert "chan receive" in text

    def test_empty_summary(self, rt):
        assert "0 partial deadlock report(s)" in rt.reports.summary_text()


class TestRQ1cInstances:
    def test_single_instance_default(self):
        config = ProductionConfig(hours=0.25, leak_every=200, seed=5)
        result = run_rq1c(config)
        assert result.individual_reports > 0
        assert result.distinct_sources == 3
        assert "1 instance(s)" in format_rq1c(result)
