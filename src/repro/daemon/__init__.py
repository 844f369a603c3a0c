"""The always-on partial-deadlock detection daemon.

The paper's GOLF detector reports only when a GC cycle happens to run,
so detection latency is bounded by GC cadence — an allocation-quiet
service can sit on a leaked goroutine for seconds.  ADVOCATE's
``DetectPartialDeadlock(interval_ms)`` API closes that gap with a
background routine that re-runs detection on a timer; this module is
that routine for the simulated runtime.

The daemon is a scheduler *ticker*
(:meth:`repro.runtime.scheduler.Scheduler.add_ticker`), not a goroutine:
the run loop calls it on a virtual-time period the way Go's ``sysmon``
runs without a P.  There is no descriptor, run-queue entry, instruction
or RNG draw for it to perturb the program with, so leak reports are
byte-identical with the daemon on or off (when the daemon surfaces no
new leaks first).
Each tick calls :meth:`repro.gc.collector.Collector.detect_only`, the
full GOLF B(g) liveness fixpoint without a collection, giving a
detection-latency SLO of roughly ``interval_ms`` regardless of when the
next real GC lands.

Lifecycle (ADVOCATE semantics):

- ``start()`` arms the ticker; starting a running daemon raises
  :class:`DaemonError` (double-start rejection).
- ``stop()`` is idempotent and a no-op when not running.  A stop issued
  mid-check (from a report callback) lets the current fixpoint complete;
  a stop between ticks removes the pending tick at once, so a stopped
  daemon never keeps the run loop alive.
- start after stop is always legal and arms a fresh ticker from the
  current clock (idempotent restart).

Usage::

    rt = Runtime(config=GolfConfig())
    daemon = rt.detect_partial_deadlock(interval_ms=50)
    rt.run(until_ns=...)
    daemon.stop()
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ReproError
from repro.runtime import events as ev
from repro.runtime.clock import MILLISECOND


class SystemTicker:
    """Lifecycle of one scheduler ticker calling :meth:`_tick`.

    A subclass supplies :meth:`_tick` plus its own error type and
    stats.  ``start()`` rejects a double start; ``stop()`` is idempotent
    and removes the pending tick, so a stopped ticker does not keep the
    process alive; a stop issued from inside a tick lets it finish.
    """

    #: Per subclass: what lifecycle errors call it, and their type.
    what = ""
    error = ReproError

    def __init__(self, rt, interval_ns: int):
        if interval_ns <= 0:
            raise self.error(f"{self.what} interval must be positive")
        self.rt = rt
        self.interval_ns = interval_ns
        self._ticker = None

    @property
    def running(self) -> bool:
        return self._ticker is not None

    def start(self) -> None:
        if self._ticker is not None:
            raise self.error(f"{self.what} already running")
        self._ticker = self.rt.sched.add_ticker(self.interval_ns, self._tick)

    def stop(self) -> None:
        if self._ticker is not None:
            self.rt.sched.remove_ticker(self._ticker)
            self._ticker = None

    def _tick(self) -> None:
        raise NotImplementedError


class DaemonError(ReproError):
    """Invalid detection-daemon lifecycle operation."""


class DaemonStats:
    """Counters for one daemon incarnation."""

    __slots__ = ("checks", "skipped", "leaks_reported", "started_at_ns",
                 "stopped_at_ns", "last_check_ns", "check_times_ns")

    def __init__(self) -> None:
        #: Completed detection passes.
        self.checks = 0
        #: Ticks skipped because an incremental GC cycle was in flight
        #: (its own mark termination renders the verdicts).
        self.skipped = 0
        #: Leaks first reported by the daemon (not by a GC cycle).
        self.leaks_reported = 0
        self.started_at_ns = 0
        self.stopped_at_ns: Optional[int] = None
        self.last_check_ns: Optional[int] = None
        #: Virtual timestamps of completed checks.
        self.check_times_ns: List[int] = []

    def __repr__(self) -> str:
        return (f"<daemon-stats checks={self.checks} "
                f"skipped={self.skipped} leaks={self.leaks_reported}>")


class DetectionDaemon(SystemTicker):
    """Controller for the detection daemon.

    Built (and usually started) through
    :meth:`repro.runtime.api.Runtime.detect_partial_deadlock`.
    """

    what = "detection daemon"
    error = DaemonError

    def __init__(self, rt, interval_ns: int = 50 * MILLISECOND):
        super().__init__(rt, interval_ns)
        self.stats = DaemonStats()

    def start(self) -> None:
        """Arm the daemon's ticker; rejects double-start."""
        if not self.rt.config.golf:
            raise DaemonError(
                "detection daemon requires a GOLF-enabled collector")
        super().start()
        self.stats = DaemonStats()
        self.stats.started_at_ns = self.rt.clock.now
        if self.rt.sched.tracer is not None:
            self.rt.sched.tracer.emit(
                ev.DAEMON_START, 0, f"interval={self.interval_ns}ns")

    def stop(self) -> None:
        """Stop the daemon.  Idempotent; no-op when not running."""
        if not self.running:
            return
        super().stop()
        self.stats.stopped_at_ns = self.rt.clock.now
        if self.rt.sched.tracer is not None:
            self.rt.sched.tracer.emit(
                ev.DAEMON_STOP, 0, f"checks={self.stats.checks}")

    def _tick(self) -> None:
        """One detection pass: the GOLF fixpoint without a collection."""
        reported_before = self.rt.reports.total()
        cs = self.rt.collector.detect_only(reason="daemon")
        now = self.rt.clock.now
        if cs is None:
            self.stats.skipped += 1
            return
        self.stats.checks += 1
        self.stats.last_check_ns = now
        self.stats.check_times_ns.append(now)
        new_leaks = self.rt.reports.total() - reported_before
        self.stats.leaks_reported += new_leaks
        if not new_leaks:
            return
        if self.rt.sched.tracer is not None:
            self.rt.sched.tracer.emit(
                ev.DAEMON_DETECT, 0,
                f"{new_leaks} leak(s) found between GC cycles")
