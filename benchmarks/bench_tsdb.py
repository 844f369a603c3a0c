"""TSDB scrape overhead: observation must stay provably passive.

The metrics scraper is a daemon-class goroutine — it draws no scheduler
RNG, lives on its own timer heap, and is invisible to the virtual
execution by construction.  This benchmark pins that claim down twice:

- with scraping *disabled* (the default), the workload's wall-clock
  cost stays within noise of a run that never imported the TSDB at all
  (the scrape path is gated on ``hub.tsdb is None``);
- with scraping *enabled*, the virtual execution is untouched — the
  ``scraper`` pair of :mod:`repro.equivalence` fingerprints identically
  on the whole corpus.

Wall-clock costs are reported, not asserted; the enabled cost is gated
by the exact Python-call budget in ``tests/test_observer_fastpath.py``.
"""

from __future__ import annotations

import time

from benchmarks.conftest import emit, once
from repro.core.config import GolfConfig
from repro.equivalence import PAIRS, sweep
from repro.microbench.harness import run_microbenchmark
from repro.microbench.registry import benchmarks_by_name
from repro.telemetry import TelemetryHub

BENCH = "cgo/sendmail"
REPEATS = 30
SCRAPE_MS = 1.0


def _run_workload(hub=None, scrape=False):
    bench = benchmarks_by_name()[BENCH]
    captured = []

    def hook(rt):
        if hub is not None:
            hub.attach(rt)
            if scrape:
                rt.start_metrics_scrape(hub, interval_ms=SCRAPE_MS)
        captured.append(rt)

    run_microbenchmark(bench, procs=2, seed=0,
                       config=GolfConfig(), rt_hook=hook)
    rt = captured[0]
    end_ns = rt.clock.now
    reports = rt.reports.total()
    if scrape:
        rt.stop_metrics_scrape()
    rt.shutdown()
    return end_ns, reports


def _make_scraping_hub():
    hub = TelemetryHub()
    hub.enable_tsdb(scrape_interval_ms=SCRAPE_MS)
    return hub


def _time_variant(make_hub, scrape=False) -> float:
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        _run_workload(make_hub(), scrape=scrape)
    return (time.perf_counter() - t0) / REPEATS


def test_tsdb_scrape_overhead(benchmark):
    def measure():
        bare = _time_variant(lambda: None)
        hub_only = _time_variant(TelemetryHub)
        scraping = _time_variant(_make_scraping_hub, scrape=True)
        # Second bare pass: the wall-clock noise floor.
        bare2 = _time_variant(lambda: None)
        return bare, hub_only, scraping, bare2

    bare, hub_only, scraping, bare2 = once(benchmark, measure)
    noise_pct = 100.0 * abs(bare2 - bare) / bare

    def pct(x: float) -> float:
        return 100.0 * (x - bare) / bare

    emit("tsdb-scrape-overhead", "\n".join([
        f"tsdb scrape overhead ({BENCH}, {REPEATS} runs/variant, "
        f"{SCRAPE_MS:g}ms virtual cadence)",
        f"  bare (no hub)        : {bare * 1e3:8.3f} ms/run",
        f"  bare again (noise)   : {bare2 * 1e3:8.3f} ms/run "
        f"({noise_pct:.1f}% spread)",
        f"  hub, scrape disabled : {hub_only * 1e3:8.3f} ms/run "
        f"({pct(hub_only):+.1f}%)",
        f"  hub + 1ms scraper    : {scraping * 1e3:8.3f} ms/run "
        f"({pct(scraping):+.1f}%)",
    ]))


def test_scraping_preserves_simulation(benchmark):
    """The passivity oracle: a 1ms-cadence scraper must not move the
    virtual clock or change a single detection outcome, on any of the
    125 ground-truth programs (the ``scraper`` equivalence pair)."""
    result = once(benchmark, lambda: sweep(PAIRS["scraper"]))
    assert result.clean, "\n" + result.format()


def test_scrape_disabled_hub_matches_plain_hub(benchmark):
    """A hub with no TSDB follows the pre-TSDB code path exactly:
    same virtual outcome, same metric snapshot."""

    def run_both():
        plain = TelemetryHub()
        out_plain = _run_workload(plain)
        fresh = TelemetryHub()
        out_fresh = _run_workload(fresh)
        return (out_plain, plain.registry.snapshot(),
                out_fresh, fresh.registry.snapshot())

    out_plain, snap_plain, out_fresh, snap_fresh = once(benchmark, run_both)
    assert out_plain == out_fresh
    assert snap_plain == snap_fresh
