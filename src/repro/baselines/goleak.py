"""A goleak analog: end-of-test lingering-goroutine detection.

`goleak <https://github.com/uber-go/goleak>`_ inspects the runtime state
when a test finishes and reports goroutines that have not terminated.
Every goroutine involved in a partial deadlock is unterminated at test
end, but not every unterminated goroutine is deadlocked: goroutines
blocked on IO/timers and *runaway live* goroutines (the paper's Listing
5 heartbeat) are flagged too.  The paper's RQ1(b) comparison excludes
those categories for fairness, and so does :func:`find_leaks`.
"""

from __future__ import annotations

from typing import List

from repro.runtime.api import Runtime
from repro.runtime.goroutine import GStatus, Goroutine

#: The one record category: channel / sync blocking.
CATEGORY_CONCURRENCY = "blocked-concurrency"


class GoleakRecord:
    """One lingering goroutine found at test end."""

    __slots__ = ("goid", "name", "label", "go_site", "block_site",
                 "wait_reason", "category")

    def __init__(self, g: Goroutine, category: str):
        self.goid = g.goid
        self.name = g.name
        self.label = g.deadlock_label
        self.go_site = g.go_site
        self.block_site = g.block_site()
        self.wait_reason = g.wait_reason.value if g.wait_reason else ""
        self.category = category

    @property
    def dedup_key(self):
        return (self.go_site, self.block_site)

    def __repr__(self) -> str:
        return (
            f"<goleak {self.category} goid={self.goid} "
            f"label={self.label!r} at {self.block_site}>"
        )


def find_leaks(rt: Runtime) -> List[GoleakRecord]:
    """Report unterminated user goroutines, as goleak does at test end.

    Only concurrency-blocked goroutines are returned — the category the
    paper compares GOLF against.  Goroutines GOLF has already reported
    (``DEADLOCKED`` / ``PENDING_RECLAIM`` states) are still lingering
    from goleak's point of view and are included.
    """
    return [GoleakRecord(g, CATEGORY_CONCURRENCY) for g in rt.sched.allgs
            if not g.is_system
            and (g.status in (GStatus.DEADLOCKED, GStatus.PENDING_RECLAIM)
                 or (g.status == GStatus.WAITING
                     and g.is_blocked_detectably))]


class LeakAssertionError(AssertionError):
    """Raised by :func:`verify_none` when goroutines linger."""


def verify_none(rt: Runtime) -> None:
    """``goleak.VerifyNone`` for this runtime: raise if anything lingers.

    The test-suite idiom — call at the end of a test to fail it when
    the code under test leaked goroutines::

        rt.run()
        verify_none(rt)
    """
    records = find_leaks(rt)
    if records:
        lines = [f"found {len(records)} unexpected goroutine(s):"]
        for record in records:
            lines.append(
                f"  goroutine {record.goid} [{record.category}"
                f"{', ' + record.wait_reason if record.wait_reason else ''}]"
                f" blocked at {record.block_site}"
            )
        raise LeakAssertionError("\n".join(lines))
