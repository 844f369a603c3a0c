"""Tracer overhead: the no-op fast path must be within noise.

Every tracer hook in the scheduler/executor/sema/heap/collector guards
on ``tracer is None`` — one attribute check when disabled.  This
benchmark runs the same deterministic workload three ways (bare, with
the tracer enabled, with the tracer plus Chrome export) and reports the
wall-clock cost of each (reported, not asserted: the enabled cost is
gated by the exact Python-call budget in
``tests/test_observer_fastpath.py``).  Asserted:

- disabled tracing changes nothing observable (identical virtual end
  time and leak reports), so the guard cannot perturb the simulation;
- enabled tracing is passive: the ``tracer`` equivalence pair
  fingerprints identically on the whole corpus.
"""

from __future__ import annotations

import time

from benchmarks.conftest import emit, once
from repro.core.config import GolfConfig
from repro.equivalence import PAIRS, sweep
from repro.microbench.harness import run_microbenchmark
from repro.microbench.registry import benchmarks_by_name
from repro.trace import export_chrome_trace

BENCH = "cgo/sendmail"
REPEATS = 30


def _run_workload(traced=False, export=False):
    bench = benchmarks_by_name()[BENCH]
    captured = []

    def hook(rt):
        if traced:
            captured.append(rt.enable_tracing())
        captured.append(rt)

    run_microbenchmark(bench, procs=2, seed=0, config=GolfConfig(),
                       rt_hook=hook)
    rt = captured[-1]
    end_ns = rt.clock.now
    reports = rt.reports.total()
    if export:
        export_chrome_trace(captured[0], procs=2, benchmark=BENCH, seed=0)
    rt.shutdown()
    return end_ns, reports


def _time_variant(**kwargs) -> float:
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        _run_workload(**kwargs)
    return (time.perf_counter() - t0) / REPEATS


def test_trace_overhead(benchmark):
    def measure():
        bare = _time_variant()
        traced = _time_variant(traced=True)
        exported = _time_variant(traced=True, export=True)
        # Second bare pass: the wall-clock noise floor against which the
        # disabled-path cost must be judged.
        bare2 = _time_variant()
        return bare, traced, exported, bare2

    bare, traced, exported, bare2 = once(benchmark, measure)
    noise_pct = 100.0 * abs(bare2 - bare) / bare

    def pct(x: float) -> float:
        return 100.0 * (x - bare) / bare

    emit("trace-overhead", "\n".join([
        f"tracer overhead ({BENCH}, {REPEATS} runs/variant)",
        f"  bare (no tracer)     : {bare * 1e3:8.3f} ms/run",
        f"  bare again (noise)   : {bare2 * 1e3:8.3f} ms/run "
        f"({noise_pct:.1f}% spread)",
        f"  tracer enabled       : {traced * 1e3:8.3f} ms/run "
        f"({pct(traced):+.1f}%)",
        f"  tracer + export      : {exported * 1e3:8.3f} ms/run "
        f"({pct(exported):+.1f}%)",
    ]))


def test_disabled_tracing_changes_nothing(benchmark):
    def run_both():
        return _run_workload(), _run_workload()

    first, second = once(benchmark, run_both)
    assert first == second


def test_enabled_tracing_preserves_simulation(benchmark):
    """Tracing must be passive: the ``tracer`` equivalence pair
    fingerprints identically on all 125 ground-truth programs."""
    result = once(benchmark, lambda: sweep(PAIRS["tracer"]))
    assert result.clean, "\n" + result.format()
