"""Ablations over GOLF's design choices (DESIGN.md, section 4).

Two studies (the fixpoint strategy, restart vs on-the-fly root
expansion, is measured by :mod:`repro.experiments.complexity`):

1. **Detection cadence** — running detection every Nth GC cycle (the
   paper's closing remark in section 6.2): overhead drops, detections
   are merely delayed, never lost.
2. **Recovery on/off** — monitor-only GOLF still reports but memory
   stays leaked; recovery reclaims it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import GolfConfig
from repro.runtime.api import Runtime
from repro.runtime.clock import MICROSECOND, MILLISECOND
from repro.runtime.instructions import (
    Alloc,
    Go,
    MakeChan,
    Recv,
    RunGC,
    Send,
    Sleep,
)
from repro.runtime.objects import Blob

#: The cadence study: detection every Nth cycle over a pool of
#: blocked-but-live workers plus a few genuine leaks, collected over
#: many cycles.
CADENCES = (1, 2, 5, 10)
POOL = 50
LEAKS = 10
CYCLES = 30
#: The recovery study: bursts of leaked goroutines, each pinning a
#: 64 KiB payload.
BURSTS = 20
PER_BURST = 5
PAYLOAD = 64 * 1024


def _leaky_burst_program():
    """Spawns bursts of leaky goroutines, each pinning a payload blob,
    with a GC after every burst."""

    def main():
        for _ in range(BURSTS):
            for _ in range(PER_BURST):
                ch = yield MakeChan(0)

                def leaker(c=ch):
                    data = yield Alloc(Blob(PAYLOAD))
                    yield Send(c, data)

                yield Go(leaker, name="burst-leaker")
            yield Sleep(20 * MICROSECOND)
            yield RunGC()
        yield Sleep(100 * MICROSECOND)
        yield RunGC()
        yield RunGC()

    return main


def _pool_with_leaks_program():
    """A steady population of blocked-but-live workers (a job pool the
    main goroutine keeps reachable) plus a few genuine leaks, collected
    over many cycles.  The pool is what every detection pass has to
    re-examine — the cost the paper's every-Nth-cycle knob amortizes."""

    def main():
        jobs = yield MakeChan(0)

        def worker():
            yield Recv(jobs)  # parked on a live channel forever

        for _ in range(POOL):
            yield Go(worker, name="pool-worker")

        def leaker(c):
            yield Send(c, 1)

        for _ in range(LEAKS):
            ch = yield MakeChan(0)
            yield Go(leaker, ch, name="pool-leaker")
            del ch
        for _ in range(CYCLES):
            yield Sleep(20 * MICROSECOND)
            yield RunGC()

    return main


class CadenceAblation:
    """Detect-every-N: pause cost vs detection latency."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, float]] = []

    def run(self) -> "CadenceAblation":
        for every in CADENCES:
            rt = Runtime(
                procs=2, seed=0,
                config=GolfConfig(detect_every=every),
            )
            rt.spawn_main(_pool_with_leaks_program())
            rt.run(until_ns=500 * MILLISECOND)
            stats = rt.collector.stats
            self.rows.append({
                "detect_every": every,
                "num_gc": stats.num_gc,
                "detected": stats.total_deadlocks_detected,
                "checks": sum(c.liveness_checks for c in stats.cycles),
                "pause_total_us": stats.pause_total_ns / 1000,
            })
        return self

    def format(self) -> str:
        lines = [f"{'every':>6s} {'cycles':>7s} {'detected':>9s} "
                 f"{'checks':>7s} {'pause total (us)':>17s}"]
        for row in self.rows:
            lines.append(
                f"{row['detect_every']:>6.0f} {row['num_gc']:>7.0f} "
                f"{row['detected']:>9.0f} {row['checks']:>7.0f} "
                f"{row['pause_total_us']:>17.1f}"
            )
        return "\n".join(lines)


class RecoveryAblation:
    """Reclaim vs monitor-only: detections equal, memory wildly not."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, float]] = []

    def run(self) -> "RecoveryAblation":
        for reclaim in (False, True):
            rt = Runtime(
                procs=2, seed=0,
                config=GolfConfig(reclaim=reclaim),
            )
            rt.spawn_main(_leaky_burst_program())
            rt.run(until_ns=200 * MILLISECOND)
            rt.gc_until_quiescent()
            ms = rt.memstats()
            self.rows.append({
                "reclaim": float(reclaim),
                "detected": rt.reports.total(),
                "heap_alloc_kb": ms.heap_alloc / 1024,
                "goroutines": ms.num_goroutine,
            })
        return self

    def format(self) -> str:
        lines = [f"{'reclaim':>8s} {'detected':>9s} {'heap (KB)':>10s} "
                 f"{'goroutines':>11s}"]
        for row in self.rows:
            lines.append(
                f"{'on' if row['reclaim'] else 'off':>8s} "
                f"{row['detected']:>9.0f} {row['heap_alloc_kb']:>10.1f} "
                f"{row['goroutines']:>11.0f}"
            )
        return "\n".join(lines)
