"""Goroutine profiles, in the spirit of ``pprof``'s goroutine profile.

LeakProf (and human operators) work from these: a snapshot of every live
goroutine, grouped by identical stack signature, with counts.  The text
rendering mimics ``/debug/pprof/goroutine?debug=1``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.runtime.goroutine import Goroutine, GStatus

if TYPE_CHECKING:  # avoid a module cycle via repro.runtime.api
    from repro.runtime.api import Runtime


class ProfileRecord:
    """One group of goroutines sharing a stack signature."""

    __slots__ = ("signature", "count", "status", "wait_reason",
                 "block_site", "goids", "labels")

    def __init__(self, signature: Tuple[str, ...], status: str,
                 wait_reason: str, block_site: str):
        self.signature = signature
        self.count = 0
        self.status = status
        self.wait_reason = wait_reason
        self.block_site = block_site
        self.goids: List[int] = []
        self.labels: List[str] = []

    def add(self, g: Goroutine) -> None:
        self.count += 1
        self.goids.append(g.goid)
        if g.deadlock_label:
            self.labels.append(g.deadlock_label)

    def __repr__(self) -> str:
        return (
            f"<profile x{self.count} [{self.status}"
            f"{', ' + self.wait_reason if self.wait_reason else ''}] "
            f"{self.block_site}>"
        )


def goroutine_profile(rt: Runtime) -> List[ProfileRecord]:
    """Snapshot live user goroutines grouped by stack signature.

    Kept-deadlocked and pending-reclaim goroutines appear (they are
    still occupying memory); descending count order, as pprof prints.
    """
    groups: Dict[Tuple, ProfileRecord] = {}
    for g in rt.sched.allgs:
        if g.status == GStatus.DEAD or g.is_system:
            continue
        signature = tuple(g.stack_trace()) or ("<no stack>",)
        reason = g.wait_reason.value if g.wait_reason else ""
        key = (signature, g.status.value, reason)
        record = groups.get(key)
        if record is None:
            record = ProfileRecord(signature, g.status.value, reason,
                                   g.block_site())
            groups[key] = record
        record.add(g)
    return sorted(groups.values(), key=lambda r: -r.count)


def format_stack_dump(rt: Runtime) -> str:
    """A per-goroutine dump in the style of Go's fatal-error output.

    Unlike the profile (which groups identical stacks), this lists every
    live user goroutine individually with its state — what you would
    read after ``fatal error: all goroutines are asleep - deadlock!``.
    """
    return rt.sched.goroutine_dump(
        [g for g in rt.sched.allgs
         if g.status != GStatus.DEAD and not g.is_system])


def format_goroutine_profile(rt: Runtime) -> str:
    """Text rendering in the style of ``/debug/pprof/goroutine?debug=1``."""
    records = goroutine_profile(rt)
    total = sum(r.count for r in records)
    lines = [f"goroutine profile: total {total}"]
    for record in records:
        state = record.status
        if record.wait_reason:
            state += f", {record.wait_reason}"
        lines.append(f"{record.count} @ [{state}]")
        for frame in record.signature:
            lines.append(f"#\t{frame}")
        lines.append("")
    return "\n".join(lines).rstrip()
