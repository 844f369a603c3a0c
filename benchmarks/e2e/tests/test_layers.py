"""The wrapper self-test: silent wrappers and wrong counts are errors."""

import pytest

from repro.gc import collector as gc_collector
from repro.gc import marking
from repro.microbench import harness
from repro.microbench.registry import all_benchmarks
from repro.runtime.scheduler import Scheduler

from benchmarks.e2e.layers import ROOT, Tracing, WrapperError
from benchmarks.e2e.spans import SpanRecorder


@pytest.fixture
def tracing():
    installed = Tracing(SpanRecorder()).install()
    yield installed
    installed.uninstall()


def _run_one_microbenchmark(tracing):
    root = tracing.rec.begin(ROOT)
    result = harness.run_microbenchmark(all_benchmarks()[0], procs=2, seed=5)
    tracing.rec.end(root)
    return root, result


def test_install_rebinds_every_holder_and_uninstall_restores():
    originals = (marking.mark_from, gc_collector.mark_from, Scheduler.run,
                 harness.run_microbenchmark)
    tracing = Tracing(SpanRecorder()).install()
    try:
        assert marking.mark_from is not originals[0]
        assert gc_collector.mark_from is not originals[1]
        assert Scheduler.run is not originals[2]
        assert harness.run_microbenchmark.__name__ == "run_microbenchmark"
    finally:
        tracing.uninstall()
    assert (marking.mark_from, gc_collector.mark_from, Scheduler.run,
            harness.run_microbenchmark) == originals


def test_wrapper_that_never_fired_raises(tracing):
    _run_one_microbenchmark(tracing)
    tracing.verify({"mark_from", "Scheduler.run"})  # these fired
    with pytest.raises(WrapperError, match="never fired.*ShardRunner.step"):
        tracing.verify({"mark_from", "ShardRunner.step"})


def test_exact_counts_match_the_programs_own(tracing):
    root, result = _run_one_microbenchmark(tracing)
    tracing.verify(())
    metrics = tracing.metrics(root)
    assert metrics["gc.collector.cycles"] == result.num_gc == 3
    assert metrics["runtime.api.runtimes"] == 1
    assert metrics["microbench.runs"] == 1
    assert metrics["core.detector.deadlocked"] == result.report_count
    assert metrics["bench.span_coverage"] == pytest.approx(1.0, abs=0.05)


def test_count_that_disagrees_with_the_program_raises(tracing):
    _run_one_microbenchmark(tracing)
    tracing.counts["gc.collector.cycles"] += 1  # a miscounting wrapper
    with pytest.raises(WrapperError, match="gc.collector.cycles"):
        tracing.verify(())
