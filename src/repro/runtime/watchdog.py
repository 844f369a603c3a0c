"""Runtime watchdog: detects global stalls and dumps goroutine state.

In the simulator, a *stall* is the situation Go's runtime can never
diagnose on its own: every user goroutine is detectably blocked (channel
or ``sync`` wait — no timer will save them) and nothing changed since the
last poll, yet the process as a whole keeps "running" because system
goroutines (periodic GC, tickers) and the watchdog's own scheduler
ticker still have timers pending.  The scheduler's global-deadlock fatal
error never fires in that state, so long-running services wedge silently
— exactly the failure mode GOLF's recovery is meant to repair.

The watchdog takes cheap user-state snapshots and reports a
:class:`StallReport` (with a full goroutine dump, like Go's fatal-error
listing) when two consecutive polls see the same fully-blocked picture.
Use it host-side between ``run_for`` slices, or install it on a
scheduler ticker that polls on a virtual-time interval::

    wd = Watchdog(rt)
    wd.install(interval_ns=10 * MILLISECOND)
    rt.run(until_ns=...)
    if wd.stalls:
        print(wd.stalls[0].dump)
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.runtime import events as ev
from repro.runtime.clock import MILLISECOND
from repro.runtime.goroutine import GStatus


class StallReport:
    """One detected stall: when, who, and the stack listing."""

    __slots__ = ("time_ns", "goids", "dump")

    def __init__(self, time_ns: int, goids: Tuple[int, ...], dump: str):
        self.time_ns = time_ns
        self.goids = goids
        self.dump = dump

    def __repr__(self) -> str:
        return (
            f"<stall @{self.time_ns}ns goroutines={list(self.goids)}>"
        )


class Watchdog:
    """Polls a runtime for global stalls among user goroutines.

    A stall is declared when, for two consecutive polls, every live user
    goroutine is detectably blocked (``B(g)`` non-empty, no timer) with
    unchanged identity and wait reason.  Goroutines GOLF already
    reported (kept-deadlocked) are excluded — they are diagnosed, not
    stalled.  Each distinct stalled snapshot is reported once, so a
    wedge that GOLF later repairs does not flood the log.
    """

    def __init__(self, rt):
        self.rt = rt
        self.stalls: List[StallReport] = []
        #: Polls taken so far (host-side and ticker-driven alike).
        self.polls = 0
        self._last_snapshot: Optional[Tuple] = None
        self._reported_snapshots: set = set()

    def _snapshot(self) -> Optional[Tuple]:
        """The current fully-blocked user picture, or None if any user
        goroutine can still make progress on its own."""
        blocked = []
        for g in self.rt.sched.allgs:
            # System goroutines (forcegc) run forever by design: a stall
            # verdict must never implicate them, and their timer parks
            # must not mask a wedged user program either.
            if g.is_system or g.status == GStatus.DEAD:
                continue
            if g.status in (GStatus.DEADLOCKED, GStatus.PENDING_RECLAIM):
                continue  # already diagnosed by GOLF
            if not g.is_blocked_detectably:
                return None  # runnable, running, or timer-parked
            reason = g.wait_reason.value if g.wait_reason else "?"
            blocked.append((g.goid, reason))
        if not blocked:
            return None
        return tuple(sorted(blocked))

    def poll(self) -> Optional[StallReport]:
        """Compare against the previous poll; report a new stall if any."""
        self.polls += 1
        snap = self._snapshot()
        stalled = snap is not None and snap == self._last_snapshot
        self._last_snapshot = snap
        if not stalled or snap in self._reported_snapshots:
            return None
        self._reported_snapshots.add(snap)
        goids = tuple(goid for goid, _ in snap)
        sched = self.rt.sched
        victims = [g for g in sched.allgs if g.goid in set(goids)]
        report = StallReport(self.rt.clock.now, goids,
                             sched.goroutine_dump(victims))
        self.stalls.append(report)
        if sched.tracer is not None:
            sched.tracer.emit(
                ev.WATCHDOG_STALL, 0,
                f"{len(goids)} user goroutines wedged: {list(goids)}")
        return report

    def install(self, interval_ns: int = 10 * MILLISECOND) -> None:
        """Poll from a scheduler ticker every ``interval_ns``.

        A ticker takes no processor, RNG draw or instruction, so the
        watched program runs byte-identically (the ``watchdog`` pair of
        :mod:`repro.equivalence`); a poll only snapshots — it cannot
        wake anyone, so it never masks the stall it is looking for.
        """
        self.rt.sched.add_ticker(interval_ns, self.poll)
