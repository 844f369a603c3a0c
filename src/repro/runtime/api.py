"""The public runtime facade.

:class:`Runtime` assembles the simulated Go runtime — heap, virtual
clock, scheduler, collector (baseline or GOLF), and the deadlock report
log — and exposes the operations programs and experiment harnesses need:
spawning goroutines, running to completion or a deadline, forcing GC
cycles, and reading ``MemStats``-style metrics.

Quickstart::

    from repro import Runtime, GolfConfig
    from repro.runtime.instructions import Go, MakeChan, Send, Sleep

    def main():
        ch = yield MakeChan(0)
        def sender():
            yield Send(ch, "hello")   # no receiver: leaks
        yield Go(sender, name="leaky-sender")
        yield Sleep(1_000_000)

    rt = Runtime(procs=4, seed=7, config=GolfConfig())
    rt.spawn_main(main)
    rt.run()
    rt.gc(); rt.gc()                  # detect, then reclaim
    assert rt.reports.total() == 1
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.core.config import GolfConfig
from repro.core.reports import ReportLog
from repro.gc.collector import Collector
from repro.gc.heap import Heap
from repro.gc.stats import CycleStats, MemStats
from repro.runtime.channel import Channel
from repro.runtime.clock import Clock, MILLISECOND
from repro.runtime.goroutine import Goroutine, GStatus
from repro.runtime.instructions import RunGC, Sleep
from repro.runtime.objects import HeapObject
from repro.runtime.scheduler import Scheduler
from repro.runtime.sync import Cond, Mutex, Pool, RWMutex, WaitGroup

#: Called with every runtime as its construction ends, or ``None``: the
#: slot :func:`repro.telemetry.hub.set_default_hub` fills with the
#: default hub's ``attach`` (the CLI's ``--metrics`` plumbing) and clears.
on_new_runtime: Optional[Callable[["Runtime"], Any]] = None


class Runtime:
    """A simulated Go runtime instance.

    Args:
        procs: GOMAXPROCS — number of virtual processors.
        seed: seed for all scheduling/jitter randomness.
        config: collector configuration; defaults to GOLF with recovery.
    """

    def __init__(self, procs: int = 1, seed: int = 0,
                 config: Optional[GolfConfig] = None):
        self.config = config or GolfConfig()
        self.clock = Clock()
        self.heap = Heap()
        self.sched = Scheduler(self.heap, self.clock, procs=procs, seed=seed)
        self.reports = ReportLog()
        self.collector = Collector(self.heap, self.sched, self.clock,
                                   self.config, self.reports)
        #: The detection daemon, once started (see
        #: :meth:`detect_partial_deadlock`).
        self._daemon = None
        #: The TSDB metrics scraper, once started (see
        #: :meth:`start_metrics_scrape`).
        self._scraper = None
        if on_new_runtime is not None:
            on_new_runtime(self)

    # -- program setup ------------------------------------------------------

    def spawn_main(self, fn: Callable[..., Any], *args: Any) -> Goroutine:
        """Spawn the main goroutine; :meth:`run` stops when it exits."""
        return self.sched.spawn(fn, *args, name="main", go_site="<main>")

    def go(self, fn: Callable[..., Any], *args: Any,
           name: str = "") -> Goroutine:
        """Spawn a goroutine from host code (outside any goroutine)."""
        g = self.sched.spawn(fn, *args, name=name, go_site="<host>")
        if name:
            g.deadlock_label = name
        return g

    # -- host-side constructors ----------------------------------------------
    # These mirror the MakeChan/NewMutex/... instructions for code that
    # builds state before the program runs (tests, experiment setup).

    def make_chan(self, capacity: int = 0, label: str = "") -> Channel:
        ch = Channel(capacity, label=label)
        self.heap.allocate(ch)
        ch.make_site = "<host>"
        return ch

    def install_proofs(self, registry) -> None:
        """Install a :class:`~repro.staticcheck.proofs.ProofRegistry`.

        Channels made after this call whose ``(make-site, capacity)``
        carries a leak-freedom certificate are tagged, letting the
        detector fixpoint skip their sudog scans.  Install before
        :meth:`spawn_main` so every channel allocation sees the
        registry; pass ``None`` to turn proofs off again.
        """
        self.sched.proof_registry = registry

    def new_mutex(self, label: str = "") -> Mutex:
        m = Mutex(label=label)
        self.heap.allocate(m)
        return m

    def new_rwmutex(self, label: str = "") -> RWMutex:
        m = RWMutex(label=label)
        self.heap.allocate(m)
        return m

    def new_waitgroup(self, label: str = "") -> WaitGroup:
        wg = WaitGroup(label=label)
        self.heap.allocate(wg)
        return wg

    def new_cond(self, locker: Mutex) -> Cond:
        cond = Cond(locker)
        self.heap.allocate(cond)
        return cond

    def new_pool(self, new=None) -> Pool:
        """Allocate a ``sync.Pool`` (GC empties it across cycles)."""
        pool = Pool(new=new)
        self.heap.allocate(pool)
        return pool

    def alloc(self, obj: HeapObject) -> HeapObject:
        """Allocate a user object from host code."""
        return self.heap.allocate(obj)

    def set_global(self, name: str, value: Any) -> None:
        """Register a package-level (always reachable) variable."""
        self.heap.globals.set(name, value)

    def get_global(self, name: str, default: Any = None) -> Any:
        return self.heap.globals.get(name, default)

    # -- execution ------------------------------------------------------------

    def run(self, until_ns: Optional[int] = None,
            max_instructions: Optional[int] = None) -> str:
        """Run the scheduler; see :meth:`Scheduler.run` for semantics."""
        return self.sched.run(until_ns=until_ns,
                              max_instructions=max_instructions)

    def run_for(self, duration_ns: int,
                max_instructions: Optional[int] = None) -> str:
        """Run for ``duration_ns`` more virtual nanoseconds."""
        return self.run(until_ns=self.clock.now + duration_ns,
                        max_instructions=max_instructions)

    def gc(self, reason: str = "forced") -> CycleStats:
        """Force one full collection cycle immediately."""
        return self.collector.collect(reason=reason)

    def gc_until_quiescent(self, max_cycles: int = 10) -> List[CycleStats]:
        """Collect repeatedly until a cycle detects and reclaims nothing.

        The two-cycle recovery protocol means a single forced GC reports
        deadlocks but reclaims them only on the next cycle; this helper
        drives cycles to completion (useful at program end, like the
        paper's microbenchmark template that forces GC before exit).
        """
        cycles: List[CycleStats] = []
        for _ in range(max_cycles):
            cs = self.gc()
            cycles.append(cs)
            if cs.deadlocks_detected == 0 and cs.goroutines_reclaimed == 0:
                break
        return cycles

    def enable_periodic_gc(self, interval_ns: int = 100 * MILLISECOND) -> None:
        """Spawn a system goroutine forcing a GC every ``interval_ns``.

        The analog of the paper's "strategically injected calls to the
        GC" (section 6.2) and of Go's 2-minute forced GC.
        """

        def forcegc_loop():
            while True:
                yield Sleep(interval_ns)
                yield RunGC()

        self.sched.spawn(forcegc_loop, name="forcegc", system=True,
                         go_site="<runtime>")

    # -- detection daemon -----------------------------------------------------

    def detect_partial_deadlock(self, interval_ms: float = 50.0):
        """Start the always-on partial-deadlock detection daemon.

        Arms a scheduler ticker that runs the GOLF liveness fixpoint
        every ``interval_ms`` virtual milliseconds, independent of GC
        cadence, bounding detection latency by the interval (ADVOCATE's
        ``DetectPartialDeadlock`` API).  Returns the
        :class:`~repro.daemon.DetectionDaemon` controller.

        Raises :class:`~repro.daemon.DaemonError` if a daemon is already
        running (double-start) or the collector has GOLF disabled.
        Stop-then-start is always legal and builds a fresh daemon.
        """
        from repro.daemon import DetectionDaemon

        daemon = self._daemon
        if daemon is None or not daemon.running:
            daemon = DetectionDaemon(
                self, interval_ns=int(interval_ms * MILLISECOND))
        daemon.start()  # rejects the double start of a running one
        self._daemon = daemon
        return daemon

    def stop_partial_deadlock_detection(self) -> None:
        """Stop the detection daemon; a no-op when none is running."""
        if self._daemon is not None:
            self._daemon.stop()

    @property
    def detection_daemon(self):
        """The daemon controller, or None if never started."""
        return self._daemon

    def shutdown(self) -> None:
        """Tear down the simulated process.

        Force-closes the suspended bodies of reclaimed goroutines (their
        deferred code never ran during the simulation, matching GOLF;
        at teardown the frames are unwound — any instruction a
        ``finally`` block tries to yield is simply discarded).  Optional:
        only needed to silence CPython's generator-finalization warnings
        when a runtime with reclaimed goroutines is dropped.
        """
        for gen in self.sched._reclaimed_bodies:
            for _ in range(64):  # a finally may yield several times
                try:
                    gen.close()
                    break
                except RuntimeError:
                    continue  # "generator ignored GeneratorExit"
                except BaseException:
                    break
        self.sched._reclaimed_bodies.clear()

    def enable_tracing(self, capacity: int = 100_000):
        """Turn on structured event tracing; returns the tracer.

        Installs an :class:`~repro.trace.ExecutionTracer` on the
        scheduler, the semaphore table, and the heap's barrier-shade
        hook: goroutine lifecycle, channel/select/sema operations,
        per-core instruction slices, GC phases, and leak verdicts are
        recorded with virtual timestamps.  Read them via
        ``rt.tracer.events`` / ``rt.tracer.format()``, or export with
        :func:`repro.trace.export_chrome_trace`.
        """
        from repro.trace import ExecutionTracer

        tracer = ExecutionTracer(self.clock, capacity=capacity)
        self.sched.tracer = tracer
        self.sched.semtable.tracer = tracer
        self.heap.trace_shade_hook = tracer.on_shade
        return tracer

    @property
    def tracer(self):
        return self.sched.tracer

    def enable_telemetry(self, hub=None, scrape_interval_ms=None):
        """Attach a telemetry hub (see :mod:`repro.telemetry`); returns it.

        With no argument a fresh :class:`TelemetryHub` is created.  The
        hub's metrics, flight recorder, profiles, and leak fingerprints
        all observe this runtime from here on.

        ``scrape_interval_ms`` additionally turns on continuous
        observation: the hub grows a virtual-time TSDB + alert engine
        (if it does not have one yet) and a
        :class:`~repro.telemetry.tsdb.MetricsScraper` ticker is started
        at that cadence — not a goroutine, exactly like the detection
        daemon, so enabling it never perturbs the simulation.
        """
        from repro.telemetry.hub import TelemetryHub

        if hub is None:
            hub = TelemetryHub()
        hub.attach(self)
        if scrape_interval_ms is not None:
            if hub.tsdb is None:
                hub.enable_tsdb(scrape_interval_ms=scrape_interval_ms)
            self.start_metrics_scrape(hub, interval_ms=scrape_interval_ms)
        return hub

    def start_metrics_scrape(self, hub=None, interval_ms=None):
        """Start the TSDB scraper on this runtime; returns it.

        ``hub`` defaults to the attached telemetry hub; ``interval_ms``
        to the hub's ``scrape_interval_ms``.  Raises
        :class:`~repro.telemetry.tsdb.ScraperError` on double-start or
        when the hub has no TSDB enabled.
        """
        from repro.telemetry.tsdb import MetricsScraper, ScraperError

        hub = hub if hub is not None else self.telemetry
        if hub is None:
            raise ScraperError("no telemetry hub attached to scrape")
        scraper = self._scraper
        if scraper is None or not scraper.running:
            interval = (interval_ms if interval_ms is not None
                        else hub.scrape_interval_ms or 5.0)
            scraper = MetricsScraper(
                self, hub, interval_ns=int(interval * MILLISECOND))
        scraper.start()  # rejects the double start of a running one
        self._scraper = scraper
        return scraper

    def stop_metrics_scrape(self) -> None:
        """Stop the scraper; a no-op when none is running."""
        if self._scraper is not None:
            self._scraper.stop()

    @property
    def metrics_scraper(self):
        """The scraper controller, or None if never started."""
        return self._scraper

    @property
    def telemetry(self):
        return self.sched.telemetry

    # -- introspection ---------------------------------------------------------

    def memstats(self) -> MemStats:
        """Snapshot runtime memory/GC metrics (``runtime.MemStats``)."""
        stats = self.collector.stats
        heap_inuse = sum(
            _round_up(obj.size, 16) for obj in self.heap.objects()
        )
        elapsed_cpu_ns = max(1, self.clock.now) * len(self.sched.procs)
        return MemStats(
            heap_alloc=self.heap.live_bytes,
            heap_inuse=heap_inuse,
            heap_objects=self.heap.live_objects,
            stack_inuse=self.sched.stack_inuse_bytes(),
            total_alloc=self.heap.total_alloc_bytes,
            num_gc=stats.num_gc,
            pause_total_ns=stats.pause_total_ns,
            gc_cpu_fraction=min(1.0, stats.gc_cpu_ns() / elapsed_cpu_ns),
            num_goroutine=len(self.sched.user_goroutines()),
            blocked_goroutines=len(self.sched.blocked_goroutines()),
        )

    def check_invariants(self) -> List[str]:
        """Sweep internal state for impossible configurations.

        Returns human-readable violations (empty list = healthy); see
        :mod:`repro.runtime.invariants`.
        """
        from repro.runtime.invariants import check_invariants

        return check_invariants(self)

    def blocked_goroutine_count(self) -> int:
        """Goroutines currently blocked (waiting or kept-deadlocked) —
        the series plotted in the paper's Figure 1."""
        return sum(
            1 for g in self.sched.allgs
            if g.status in (GStatus.WAITING, GStatus.DEADLOCKED,
                            GStatus.PENDING_RECLAIM) and not g.is_system
        )

    @property
    def deadlock_reports(self) -> ReportLog:
        return self.reports


def _round_up(n: int, align: int) -> int:
    return (n + align - 1) // align * align
