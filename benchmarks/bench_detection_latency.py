"""Detection latency vs GC cadence (the flip side of paper section 6.2).

Detecting every Nth cycle reduces overhead "at no cost to the efficacy"
— every leak is still found — but time-to-detection scales with
(interval x cadence).  This bench quantifies that trade-off.
"""

from benchmarks.conftest import emit
from repro.experiments.latency import (
    format_daemon_sweep,
    format_latency_sweep,
    run_daemon_latency_sweep,
    run_latency_sweep,
)


def test_detection_latency_sweep():
    results = run_latency_sweep(
        gc_intervals_ms=(0.5, 2.0, 8.0), cadences=(1, 5), leaks=60)
    emit("detection_latency", format_latency_sweep(results))

    by_key = {(r.gc_interval_ms, r.detect_every): r for r in results}
    # Efficacy: everything detected everywhere.
    assert all(r.detected == r.leaks for r in results)
    # Latency scales with the effective detection period.
    assert (by_key[(0.5, 1)].mean_ms() < by_key[(2.0, 1)].mean_ms()
            < by_key[(8.0, 1)].mean_ms())
    assert by_key[(2.0, 5)].mean_ms() > 2 * by_key[(2.0, 1)].mean_ms()


def test_daemon_latency_slo_curve():
    """Latency vs daemon interval, GC pinned at its operational 100ms.

    The always-on daemon's SLO: time-to-detection is bounded by the
    daemon interval, not the GC cadence.
    """
    results = run_daemon_latency_sweep(
        daemon_intervals_ms=(5.0, 20.0, 50.0, 200.0),
        gc_interval_ms=100.0, leaks=60)
    emit("daemon_latency_slo", format_daemon_sweep(results))

    baseline = results[0]
    by_daemon = {r.daemon_interval_ms: r for r in results[1:]}
    assert baseline.daemon_interval_ms is None
    # Efficacy is untouched: everything detected in every setting.
    assert all(r.detected == r.leaks for r in results)
    # The headline SLO: daemon at 50ms beats the 100ms GC cadence
    # baseline on p99 detection latency.
    assert by_daemon[50.0].p99_ms() < baseline.p99_ms()
    # The curve tracks the daemon interval below the GC cadence...
    assert (by_daemon[5.0].p99_ms() < by_daemon[20.0].p99_ms()
            < by_daemon[50.0].p99_ms())
    # ...and each such row is bounded by its interval (+ one fixpoint).
    for interval in (5.0, 20.0, 50.0):
        assert by_daemon[interval].p99_ms() <= interval + 1.0
    # Above the GC cadence the daemon adds nothing: the row collapses
    # onto the baseline.
    assert by_daemon[200.0].p99_ms() <= baseline.p99_ms() + 1.0
