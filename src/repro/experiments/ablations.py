"""Ablations over GOLF's design choices (DESIGN.md, section 4).

Three studies:

1. **Fixpoint strategy** — the paper's restart-based mark iterations vs
   the on-the-fly root expansion it sketches in section 5.3.  Both must
   report identical deadlock sets; the on-the-fly variant needs exactly
   one iteration where the restart variant needs one per daisy-chain hop.
2. **Detection cadence** — running detection every Nth GC cycle (the
   paper's closing remark in section 6.2): overhead drops, detections
   are merely delayed, never lost.
3. **Recovery on/off** — monitor-only GOLF still reports but memory
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


def _chain_program(length: int):
    """A daisy chain of blocked goroutines, the detector's worst case
    (section 5.2): main holds only the head channel, each stage holds the
    next hop, so the whole chain is *live* but every restart iteration
    can discover exactly one more goroutine."""

    def stage(src, remaining: int):
        if remaining == 0:
            yield Recv(src)  # the tail consumes and exits
            return
        dst = yield MakeChan(0)
        yield Go(stage, dst, remaining - 1)
        value, _ = yield Recv(src)
        yield Send(dst, value)

    def main():
        head = yield MakeChan(0)
        yield Go(stage, head, length - 1)
        yield Sleep(100 * MICROSECOND)
        yield RunGC()
        # Feed the chain so everything winds down cleanly.
        yield Send(head, 1)

    return main


class FixpointAblation:
    """Iteration/work comparison between the two fixpoint strategies."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, float]] = []

    def run(self, chain_lengths=(2, 4, 8, 16), seed: int = 0) -> "FixpointAblation":
        for length in chain_lengths:
            row: Dict[str, float] = {"chain": length}
            for on_the_fly in (False, True):
                # Both legs atomic: on-the-fly expansion exists only there.
                rt = Runtime(
                    procs=2, seed=seed,
                    config=GolfConfig(on_the_fly_roots=on_the_fly,
                                      gc_mode="atomic"),
                )
                rt.spawn_main(_chain_program(length))
                rt.run(until_ns=50 * MILLISECOND)
                cycles = rt.collector.stats.cycles
                detect_cycles = [c for c in cycles if c.mode == "golf"]
                key = "otf" if on_the_fly else "restart"
                row[f"{key}_iterations"] = max(
                    c.mark_iterations for c in detect_cycles)
                row[f"{key}_checks"] = sum(
                    c.liveness_checks for c in detect_cycles)
                row[f"{key}_deadlocks"] = rt.reports.total()
            self.rows.append(row)
        return self

    def format(self) -> str:
        lines = [f"{'chain':>6s} {'restart iters':>14s} {'otf iters':>10s} "
                 f"{'restart checks':>15s} {'otf checks':>11s}"]
        for row in self.rows:
            lines.append(
                f"{row['chain']:>6.0f} {row['restart_iterations']:>14.0f} "
                f"{row['otf_iterations']:>10.0f} "
                f"{row['restart_checks']:>15.0f} {row['otf_checks']:>11.0f}"
            )
        return "\n".join(lines)


def _leaky_burst_program(bursts: int, per_burst: int, payload: int):
    """Spawns bursts of leaky goroutines, each pinning a payload blob,
    with a GC after every burst."""

    def main():
        for _ in range(bursts):
            for _ in range(per_burst):
                ch = yield MakeChan(0)

                def leaker(c=ch):
                    data = yield Alloc(Blob(payload))
                    yield Send(c, data)

                yield Go(leaker, name="burst-leaker")
            yield Sleep(20 * MICROSECOND)
            yield RunGC()
        yield Sleep(100 * MICROSECOND)
        yield RunGC()
        yield RunGC()

    return main


def _pool_with_leaks_program(pool: int, leaks: int, cycles: int):
    """A steady population of blocked-but-live workers (a job pool the
    main goroutine keeps reachable) plus a few genuine leaks, collected
    over many cycles.  The pool is what every detection pass has to
    re-examine — the cost the paper's every-Nth-cycle knob amortizes."""

    def main():
        jobs = yield MakeChan(0)

        def worker():
            yield Recv(jobs)  # parked on a live channel forever

        for _ in range(pool):
            yield Go(worker, name="pool-worker")

        def leaker(c):
            yield Send(c, 1)

        for _ in range(leaks):
            ch = yield MakeChan(0)
            yield Go(leaker, ch, name="pool-leaker")
            del ch
        for _ in range(cycles):
            yield Sleep(20 * MICROSECOND)
            yield RunGC()

    return main


class CadenceAblation:
    """Detect-every-N: pause cost vs detection latency."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, float]] = []

    def run(self, cadences=(1, 2, 5, 10), pool: int = 50,
            leaks: int = 10, cycles: int = 30,
            seed: int = 0) -> "CadenceAblation":
        for every in cadences:
            rt = Runtime(
                procs=2, seed=seed,
                config=GolfConfig(detect_every=every),
            )
            rt.spawn_main(_pool_with_leaks_program(pool, leaks, cycles))
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

    def run(self, bursts: int = 20, per_burst: int = 5,
            payload: int = 64 * 1024, seed: int = 0) -> "RecoveryAblation":
        for reclaim in (False, True):
            rt = Runtime(
                procs=2, seed=seed,
                config=GolfConfig(reclaim=reclaim),
            )
            rt.spawn_main(_leaky_burst_program(bursts, per_burst, payload))
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
