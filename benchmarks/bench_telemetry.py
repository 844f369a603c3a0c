"""Telemetry overhead: the no-op fast path must be within noise.

Every instrumentation site in the scheduler/collector/watchdog guards on
``telemetry is None`` — one attribute check when disabled.  This
benchmark runs the same deterministic workload three ways (bare, with a
hub attached, with a hub *and* a DEBUG-level recorder) and reports the
wall-clock cost of each (reported, not asserted: these wall clocks have
a 10–49 % noise floor; the enabled cost is gated by the exact
Python-call budget in ``tests/test_observer_fastpath.py``).  Asserted:

- disabled telemetry changes nothing observable (byte-identical leak
  reports, identical virtual end time), so the guard cannot perturb the
  simulation;
- enabled telemetry is passive: the ``telemetry`` equivalence pair
  fingerprints identically on the whole corpus.
"""

from __future__ import annotations

import time

from benchmarks.conftest import emit, once
from repro.core.config import GolfConfig
from repro.equivalence import PAIRS, sweep
from repro.microbench.harness import run_microbenchmark
from repro.microbench.registry import benchmarks_by_name
from repro.telemetry import DEBUG, TelemetryHub

BENCH = "cgo/sendmail"
REPEATS = 30


def _run_workload(hub=None):
    bench = benchmarks_by_name()[BENCH]
    captured = []

    def hook(rt):
        if hub is not None:
            hub.attach(rt)
        captured.append(rt)

    result = run_microbenchmark(bench, procs=2, seed=0,
                                config=GolfConfig(), rt_hook=hook)
    rt = captured[0]
    end_ns = rt.clock.now
    reports = rt.reports.total()
    rt.shutdown()
    return result, end_ns, reports


def _time_variant(make_hub) -> float:
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        _run_workload(make_hub())
    return (time.perf_counter() - t0) / REPEATS


def test_telemetry_overhead(benchmark):
    def measure():
        bare = _time_variant(lambda: None)
        enabled = _time_variant(lambda: TelemetryHub())
        debug = _time_variant(lambda: TelemetryHub(min_severity=DEBUG))
        # Second bare pass: the wall-clock noise floor against which the
        # disabled-path cost must be judged.
        bare2 = _time_variant(lambda: None)
        return bare, enabled, debug, bare2

    bare, enabled, debug, bare2 = once(benchmark, measure)
    noise_pct = 100.0 * abs(bare2 - bare) / bare

    def pct(x: float) -> float:
        return 100.0 * (x - bare) / bare

    emit("telemetry-overhead", "\n".join([
        f"telemetry overhead ({BENCH}, {REPEATS} runs/variant)",
        f"  bare (no hub)        : {bare * 1e3:8.3f} ms/run",
        f"  bare again (noise)   : {bare2 * 1e3:8.3f} ms/run "
        f"({noise_pct:.1f}% spread)",
        f"  hub attached (INFO)  : {enabled * 1e3:8.3f} ms/run "
        f"({pct(enabled):+.1f}%)",
        f"  hub + DEBUG recorder : {debug * 1e3:8.3f} ms/run "
        f"({pct(debug):+.1f}%)",
    ]))


def test_disabled_telemetry_changes_nothing(benchmark):
    def run_both():
        _, end_bare, reports_bare = _run_workload(None)
        # A scheduler whose `telemetry` attribute stays None is the
        # disabled path; it must be indistinguishable from the seed
        # behavior (virtual time is the sensitive observable).
        _, end_again, reports_again = _run_workload(None)
        return (end_bare, reports_bare), (end_again, reports_again)

    first, second = once(benchmark, run_both)
    assert first == second


def test_enabled_telemetry_preserves_simulation(benchmark):
    """Attaching a hub must not perturb the virtual execution at all:
    observation is passive, so the ``telemetry`` equivalence pair (bare
    vs hub + DEBUG recorder) fingerprints identically on all 125
    ground-truth programs."""
    result = once(benchmark, lambda: sweep(PAIRS["telemetry"]))
    assert result.clean, "\n" + result.format()
