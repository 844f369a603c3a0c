"""Detection latency: how long a leak lives before GOLF reports it.

Not a paper table, but the operational flip side of the paper's
section 6.2 remark (detect every Nth cycle "at no cost to efficacy"):
the cost that *does* move is time-to-detection.  This experiment leaks
goroutines at known virtual times under different periodic-GC intervals
and detection cadences, and reports the latency distribution from leak
manifestation to GOLF report.

The daemon sweep (:func:`run_daemon_latency_sweep`) adds the detection
daemon's timer-driven fixpoint to the picture: with GC pinned at a slow
operational cadence, the daemon's interval — not the GC interval —
bounds time-to-detection, which is the SLO the always-on daemon exists
to provide.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import GolfConfig
from repro.runtime.api import Runtime
from repro.runtime.clock import MICROSECOND, MILLISECOND, SECOND
from repro.runtime.instructions import Go, MakeChan, Now, Send, Sleep
from repro.service.stats import percentile


class LatencyResult:
    """Detection latencies for one (gc_interval, detect_every) setting.

    ``daemon_interval_ms`` is None for GC-cadence-only runs; when set,
    the detection daemon was running at that interval alongside the
    periodic GC.
    """

    __slots__ = ("gc_interval_ms", "detect_every", "latencies_ns",
                 "leaks", "detected", "daemon_interval_ms")

    def __init__(self, gc_interval_ms: float, detect_every: int,
                 daemon_interval_ms: Optional[float] = None):
        self.gc_interval_ms = gc_interval_ms
        self.detect_every = detect_every
        self.daemon_interval_ms = daemon_interval_ms
        self.latencies_ns: List[int] = []
        self.leaks = 0
        self.detected = 0

    def mean_ms(self) -> float:
        if not self.latencies_ns:
            return 0.0
        return sum(self.latencies_ns) / len(self.latencies_ns) / 1e6

    def p99_ms(self) -> float:
        return percentile(sorted(self.latencies_ns), 0.99) / 1e6

    def __repr__(self) -> str:
        daemon = (f" daemon={self.daemon_interval_ms}ms"
                  if self.daemon_interval_ms is not None else "")
        return (
            f"<latency gc={self.gc_interval_ms}ms every={self.detect_every}"
            f"{daemon} mean={self.mean_ms():.2f}ms>"
        )


def run_detection_latency(
    gc_interval_ms: float = 2.0,
    detect_every: int = 1,
    leaks: int = 60,
    daemon_interval_ms: Optional[float] = None,
) -> LatencyResult:
    """Leak ``leaks`` goroutines 500us apart; measure report lag.

    The leak's *manifestation time* is when its goroutine parks on the
    orphaned channel (recorded just before the blocking send); the
    report timestamp comes from the collector.  With
    ``daemon_interval_ms`` set, the detection daemon also runs its
    timer-driven fixpoint, so reports land at whichever of the two
    cadences fires first.
    """
    result = LatencyResult(gc_interval_ms, detect_every, daemon_interval_ms)
    manifested: Dict[str, int] = {}

    def on_report(report):
        if report.label in manifested:
            result.detected += 1
            result.latencies_ns.append(
                report.detected_at_ns - manifested[report.label])

    config = GolfConfig(detect_every=detect_every, on_report=on_report)
    rt = Runtime(procs=2, seed=0, config=config)
    rt.enable_periodic_gc(int(gc_interval_ms * MILLISECOND))
    if daemon_interval_ms is not None:
        rt.detect_partial_deadlock(interval_ms=daemon_interval_ms)
    spacing_ns = 500 * MICROSECOND

    def main():
        def leaker(c, tag):
            now = yield Now()
            manifested[tag] = now
            yield Send(c, 1)

        for i in range(leaks):
            ch = yield MakeChan(0)
            tag = f"leak-{i}"
            yield Go(leaker, ch, tag, name=tag)
            del ch
            yield Sleep(spacing_ns)
        # Let the slower of the two detection cadences catch the tail.
        tail_ms = gc_interval_ms
        if daemon_interval_ms is not None:
            tail_ms = max(tail_ms, daemon_interval_ms)
        yield Sleep(int((20.0 + tail_ms) * MILLISECOND))

    rt.spawn_main(main)
    rt.run(until_ns=10 * SECOND, max_instructions=10_000_000)
    if daemon_interval_ms is not None:
        rt.stop_partial_deadlock_detection()
    rt.gc_until_quiescent()
    result.leaks = leaks
    return result


def run_latency_sweep(
    gc_intervals_ms: Sequence[float] = (0.5, 2.0, 8.0),
    cadences: Sequence[int] = (1, 5),
    leaks: int = 60,
) -> List[LatencyResult]:
    """The full sweep: every (interval, cadence) combination."""
    results = []
    for interval in gc_intervals_ms:
        for every in cadences:
            results.append(run_detection_latency(
                gc_interval_ms=interval, detect_every=every,
                leaks=leaks))
    return results


def run_daemon_latency_sweep(
    daemon_intervals_ms: Sequence[float] = (5.0, 20.0, 50.0, 200.0),
    gc_interval_ms: float = 100.0,
    leaks: int = 60,
) -> List[LatencyResult]:
    """The daemon SLO curve: latency vs daemon interval, plus baseline.

    GC is pinned at a slow operational cadence (default 100ms, the
    controlled service's production setting); the first row is the
    GC-cadence-only baseline, the rest run the daemon at each interval.
    Detection latency should track ``min(daemon interval, GC interval)``
    — the daemon rows below the GC cadence beat the baseline, the rows
    above it collapse onto it.
    """
    results = [run_detection_latency(
        gc_interval_ms=gc_interval_ms, leaks=leaks)]
    for interval in daemon_intervals_ms:
        results.append(run_detection_latency(
            gc_interval_ms=gc_interval_ms, leaks=leaks,
            daemon_interval_ms=interval))
    return results


def format_daemon_sweep(results: List[LatencyResult]) -> str:
    lines = [f"{'daemon':>10s} {'gc interval':>12s} "
             f"{'detected':>9s} {'mean lat':>9s} {'p99 lat':>9s}"]
    for r in results:
        daemon = (f"{r.daemon_interval_ms:>8.1f}ms"
                  if r.daemon_interval_ms is not None else f"{'off':>10s}")
        lines.append(
            f"{daemon} {r.gc_interval_ms:>10.1f}ms "
            f"{r.detected:>4d}/{r.leaks:<4d} "
            f"{r.mean_ms():>7.2f}ms {r.p99_ms():>7.2f}ms"
        )
    lines.append("(detection latency tracks min(daemon interval, GC "
                 "interval): the always-on daemon bounds time-to-detection "
                 "independently of GC cadence)")
    return "\n".join(lines)


def format_latency_sweep(results: List[LatencyResult]) -> str:
    lines = [f"{'gc interval':>12s} {'detect every':>13s} "
             f"{'detected':>9s} {'mean lat':>9s} {'p99 lat':>9s}"]
    for r in results:
        lines.append(
            f"{r.gc_interval_ms:>10.1f}ms {r.detect_every:>13d} "
            f"{r.detected:>4d}/{r.leaks:<4d} "
            f"{r.mean_ms():>7.2f}ms {r.p99_ms():>7.2f}ms"
        )
    lines.append("(every leak is eventually detected; cadence and GC "
                 "interval only move the latency)")
    return "\n".join(lines)
