"""Execution harness for microbenchmarks.

Follows the paper's artifact template (Figure 5): the main goroutine
instantiates the benchmark body, waits a while for the races to play out,
then forces GC cycles so detection (and, with recovery enabled,
reclamation) runs before the program exits.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro.core.config import GolfConfig
from repro.errors import GoPanic, ReproError
from repro.microbench.registry import Microbenchmark
from repro.runtime.api import Runtime
from repro.runtime.clock import MICROSECOND, MILLISECOND
from repro.runtime.instructions import Alloc, Go, RunGC, Sleep
from repro.runtime.objects import Slice, Struct

#: Virtual time the template sleeps before forcing GC.  Must exceed the
#: worst-case benchmark duration on one core (the hog-heavy flaky
#: benchmarks serialize ~600us of non-preemptible work there): the
#: closing collections only judge leaks that have manifested by then.
SETTLE_NS = 3 * MILLISECOND

#: Hard caps so a rogue benchmark cannot wedge an experiment.
VIRTUAL_DEADLINE_NS = 100 * MILLISECOND
MAX_INSTRUCTIONS = 1_000_000


class MicrobenchResult:
    """Outcome of one benchmark execution."""

    __slots__ = ("benchmark", "procs", "seed", "status", "panic",
                 "detected", "report_count", "mark_clock_ns", "num_gc",
                 "reclaimed")

    def __init__(self, benchmark: str, procs: int, seed: int):
        self.benchmark = benchmark
        self.procs = procs
        self.seed = seed
        self.status = ""
        self.panic: Optional[str] = None
        self.detected: Set[str] = set()
        self.report_count = 0
        self.mark_clock_ns = 0.0
        self.num_gc = 0
        self.reclaimed = 0

    def __repr__(self) -> str:
        return (
            f"<run {self.benchmark} procs={self.procs} seed={self.seed} "
            f"detected={sorted(self.detected)} panic={self.panic!r}>"
        )


def run_microbenchmark(
    bench: Microbenchmark,
    procs: int = 1,
    seed: int = 0,
    config: Optional[GolfConfig] = None,
    use_fixed: bool = False,
    rt_hook: Optional[Callable[[Runtime], None]] = None,
) -> MicrobenchResult:
    """Execute one microbenchmark under the given runtime configuration.

    One instance of the program's body runs beside a resident working
    set.  Returns the labels of the leaky sites whose partial deadlock was
    detected, plus GC metrics for the overhead experiments.  A benchmark
    panic (e.g. etcd/7443's occasional send-on-closed-channel, noted in
    the paper's artifact appendix) is recorded, not raised.

    ``rt_hook`` is called with the freshly built :class:`Runtime` before
    the main goroutine is spawned — the chaos engine uses it to install
    its fault injector (and tests use it to attach tracers) while still
    reusing this exact template.
    """
    body = bench.fixed if use_fixed else bench.body
    if body is None:
        raise ValueError(f"benchmark {bench.name} has no fixed variant")
    result = MicrobenchResult(bench.name, procs, seed)
    rt = Runtime(procs=procs, seed=seed, config=config or GolfConfig())
    if rt_hook is not None:
        rt_hook(rt)

    def main():
        # A resident working set, as real programs have: gives the
        # marking phase something to do in every cycle so the Figure 4
        # comparison measures more than the collector's fixed costs.
        workspace = yield Alloc(Slice())
        for i in range(40):
            item = yield Alloc(Struct(index=i, payload=None))
            workspace.append(item)
        # The program under test.
        yield Go(body)
        # A mid-flight cycle, like pacer-triggered GCs in real programs:
        # blocked-but-live goroutines exist here, so GOLF's root-set
        # expansion genuinely iterates.
        yield Sleep(60 * MICROSECOND)
        yield RunGC()
        yield Sleep(SETTLE_NS)
        yield RunGC()
        yield RunGC()

    rt.spawn_main(main)
    try:
        result.status = rt.run(until_ns=VIRTUAL_DEADLINE_NS,
                               max_instructions=MAX_INSTRUCTIONS)
    except GoPanic as panic:
        result.status = "panic"
        result.panic = panic.message
    except ReproError as err:
        result.status = "runtime-failure"
        result.panic = str(err)

    result.detected = {r.label for r in rt.reports if r.label}
    result.report_count = rt.reports.total()
    stats = rt.collector.stats
    result.num_gc = stats.num_gc
    result.mark_clock_ns = stats.mean_mark_clock_ns()
    result.reclaimed = stats.total_goroutines_reclaimed
    return result
