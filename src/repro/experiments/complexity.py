"""Detection complexity scaling (paper, section 5.3).

The paper bounds GOLF's extra work at ``O(N² + N·S)`` in the worst case
(N goroutines, S goroutine/blocking-object pairings), reachable only on
pathological daisy chains, and sketches an on-the-fly optimization that
removes the quadratic term (the collector's own expansion; the paper's
restart loop is the reference, set by
:func:`~repro.gc.collector.use_restart_fixpoint`).  This experiment
measures both strategies' liveness checks and mark iterations as the
population grows, in the two regimes that matter:

- **flat pool** (the realistic case): N independently blocked-but-live
  goroutines — restart does O(N) checks in one expansion round;
- **daisy chain** (the adversarial case): N sequentially dependent live
  goroutines — restart does O(N²) checks over N rounds, on-the-fly O(N)
  in one pass.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.gc.collector import use_restart_fixpoint
from repro.runtime.api import Runtime
from repro.runtime.clock import MICROSECOND, SECOND
from repro.runtime.instructions import (
    Go,
    MakeChan,
    Recv,
    RunGC,
    Send,
    Sleep,
)


def _flat_pool_program(n: int):
    """N workers parked on one live job channel."""

    def main():
        jobs = yield MakeChan(0)

        def worker():
            yield Recv(jobs)

        for _ in range(n):
            yield Go(worker)
        yield Sleep(50 * MICROSECOND)
        yield RunGC()
        for _ in range(n):
            yield Send(jobs, None)

    return main


def _chain_program(n: int):
    """N goroutines in a live daisy chain (head held by main)."""

    def stage(src, remaining):
        if remaining > 0:
            dst = yield MakeChan(0)
            yield Go(stage, dst, remaining - 1)
            value, _ = yield Recv(src)
            yield Send(dst, value)
        else:
            yield Recv(src)

    def main():
        head = yield MakeChan(0)
        yield Go(stage, head, n - 1)
        yield Sleep(100 * MICROSECOND)
        yield RunGC()
        yield Send(head, 1)

    return main


class ComplexityPoint:
    """Measured detection cost at one population size."""

    __slots__ = ("shape", "n", "strategy", "checks", "iterations",
                 "detection_pause_ns")

    def __init__(self, shape: str, n: int, strategy: str,
                 checks: int, iterations: int, detection_pause_ns: int):
        self.shape = shape
        self.n = n
        self.strategy = strategy
        self.checks = checks
        self.iterations = iterations
        self.detection_pause_ns = detection_pause_ns


def run_complexity_sweep(
    sizes: Sequence[int] = (8, 16, 32, 64),
) -> List[ComplexityPoint]:
    """Measure both shapes under both strategies across sizes."""
    points: List[ComplexityPoint] = []
    for shape, builder in (("pool", _flat_pool_program),
                           ("chain", _chain_program)):
        for n in sizes:
            for strategy, on_the_fly in (("restart", False),
                                         ("on-the-fly", True)):
                rt = Runtime(procs=2, seed=0)
                if not on_the_fly:
                    use_restart_fixpoint(rt.collector)
                rt.spawn_main(builder(n))
                rt.run(until_ns=5 * SECOND, max_instructions=5_000_000)
                detect_cycles = [
                    c for c in rt.collector.stats.cycles
                    if c.reason == "runtime.GC"
                ]
                checks = sum(c.liveness_checks for c in detect_cycles)
                iters = max(
                    (c.mark_iterations for c in detect_cycles), default=0)
                pause = sum(c.pause_ns for c in detect_cycles)
                points.append(ComplexityPoint(
                    shape, n, strategy, checks, iters, pause))
                assert rt.reports.total() == 0, "no false positives"
    return points


def format_complexity_sweep(points: List[ComplexityPoint]) -> str:
    lines = [f"{'shape':>6s} {'N':>5s} {'strategy':>11s} {'checks':>8s} "
             f"{'iterations':>11s} {'pause (us)':>11s}"]
    for p in points:
        lines.append(
            f"{p.shape:>6s} {p.n:>5d} {p.strategy:>11s} {p.checks:>8d} "
            f"{p.iterations:>11d} {p.detection_pause_ns / 1000:>11.1f}"
        )
    lines.append("(paper section 5.3: restart is O(N^2) on chains, "
                 "linear on pools; on-the-fly is linear everywhere)")
    return "\n".join(lines)
