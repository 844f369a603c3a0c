"""The flight recorder: the telemetry hub's bounded event log.

Production services cannot afford an unbounded trace (the failure mode
the original list-backed tracer had); the flight recorder keeps the
*last* :data:`CAPACITY` events — drop-oldest, with a dropped-event
counter — so when something goes wrong the recent history is always on
hand.  The ring itself (:class:`RingBuffer`, a ``collections.deque`` with
a count) is shared with the execution tracer and the profile sampler.

Events carry a severity and a category.  *Incidents* (the telemetry hub
opens one per leak report) snapshot the tail of the buffer at the moment
they happen, preserving the context after the ring has rolled past it.

Timestamps come from the virtual clock, so dumps are byte-identical
across runs of the same ``(program, procs, seed)``.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterator, List, Optional, Sequence

INFO = 20
WARN = 30

SEVERITY_NAMES = {INFO: "INFO", WARN: "WARN"}

#: The flight recorder's ring size, the events snapshotted into each
#: incident, and the incidents kept (beyond it they are counted).
CAPACITY = 8192
INCIDENT_TAIL = 64
MAX_INCIDENTS = 64


class RingBuffer:
    """A fixed-capacity drop-oldest buffer with a dropped counter.

    A thin holder of ``collections.deque(maxlen=capacity)``: eviction,
    iteration and length run in C.  ``appended`` counts every append
    ever made, so ``dropped`` (appended minus buffered) needs no
    per-append branch.  A writer that cannot afford a Python-level call
    per item (the execution tracer) bumps ``appended`` and calls
    ``push`` — the deque's own ``append`` — itself.
    """

    __slots__ = ("capacity", "_items", "appended", "push")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("ring buffer capacity must be positive")
        self.capacity = capacity
        self._items: deque = deque(maxlen=capacity)
        self.appended = 0
        self.push = self._items.append

    def append(self, item) -> None:
        self.appended += 1
        self.push(item)

    @property
    def dropped(self) -> int:
        return self.appended - len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def last(self, n: int) -> List:
        """The newest ``n`` items, oldest first (O(n))."""
        if n >= len(self._items):
            return list(self._items)
        tail = list(islice(reversed(self._items), max(n, 0)))
        tail.reverse()
        return tail

    def clear(self) -> None:
        self._items.clear()
        self.appended = 0


class RecorderEvent:
    """One structured, timestamped event."""

    __slots__ = ("t_ns", "category", "kind", "severity", "goid", "detail")

    def __init__(self, t_ns: int, category: str, kind: str, severity: int,
                 goid: int = 0, detail: str = ""):
        self.t_ns = t_ns
        self.category = category
        self.kind = kind
        self.severity = severity
        self.goid = goid
        self.detail = detail

    def format(self) -> str:
        sev = SEVERITY_NAMES.get(self.severity, str(self.severity))
        who = f" g{self.goid}" if self.goid else ""
        detail = f" {self.detail}" if self.detail else ""
        return (f"[{self.t_ns:>12d}ns] {sev:<5} {self.category:<8} "
                f"{self.kind}{who}{detail}")

    def as_dict(self) -> dict:
        return {
            "t_ns": self.t_ns,
            "category": self.category,
            "kind": self.kind,
            "severity": SEVERITY_NAMES.get(self.severity, str(self.severity)),
            "goid": self.goid,
            "detail": self.detail,
        }

    def __repr__(self) -> str:
        return f"<{self.format()}>"


class Incident:
    """A snapshot of the recorder tail taken when something went wrong."""

    __slots__ = ("t_ns", "reason", "detail", "events")

    def __init__(self, t_ns: int, reason: str, detail: str,
                 events: Sequence[RecorderEvent]):
        self.t_ns = t_ns
        self.reason = reason
        self.detail = detail
        self.events = tuple(events)

    def format(self) -> str:
        lines = [f"== incident [{self.reason}] at {self.t_ns}ns =="]
        if self.detail:
            lines.extend(f"  {line}" for line in self.detail.splitlines())
        lines.append(f"  last {len(self.events)} event(s):")
        lines.extend(f"  {e.format()}" for e in self.events)
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "t_ns": self.t_ns,
            "reason": self.reason,
            "detail": self.detail,
            "events": [e.as_dict() for e in self.events],
        }


class FlightRecorder:
    """Bounded event log with incidents.

    ``clock`` is the virtual clock that timestamps events; the hub sets
    it when it attaches to a runtime, and events recorded before that
    are stamped 0.
    """

    def __init__(self):
        self.clock = None
        self._ring = RingBuffer(CAPACITY)
        self.incidents: List[Incident] = []
        self.incidents_suppressed = 0

    # -- recording -----------------------------------------------------------

    def record(self, category: str, kind: str, goid: int = 0,
               detail: str = "", severity: int = INFO) -> None:
        t_ns = self.clock.now if self.clock is not None else 0
        self._ring.append(
            RecorderEvent(t_ns, category, kind, severity, goid, detail))

    def incident(self, reason: str, detail: str = "") -> Optional[Incident]:
        """Snapshot the buffer tail; returns None past
        :data:`MAX_INCIDENTS`."""
        if len(self.incidents) >= MAX_INCIDENTS:
            self.incidents_suppressed += 1
            return None
        t_ns = self.clock.now if self.clock is not None else 0
        incident = Incident(t_ns, reason, detail,
                            self._ring.last(INCIDENT_TAIL))
        self.incidents.append(incident)
        return incident

    # -- reading -------------------------------------------------------------

    @property
    def dropped(self) -> int:
        return self._ring.dropped

    def __len__(self) -> int:
        return len(self._ring)

    def events(self) -> List[RecorderEvent]:
        return list(self._ring)

    def dump(self, limit: Optional[int] = None) -> str:
        """A deterministic, human-readable dump of the buffer and the
        incident log — what an operator reads after a wedge."""
        events = list(self._ring) if limit is None else self._ring.last(limit)
        lines = [f"flight recorder: {len(self._ring)} event(s) buffered, "
                 f"{self.dropped} dropped, {len(self.incidents)} incident(s)"]
        lines.extend(e.format() for e in events)
        for incident in self.incidents:
            lines.append("")
            lines.append(incident.format())
        if self.incidents_suppressed:
            lines.append(
                f"... {self.incidents_suppressed} further incident(s) "
                f"suppressed (max_incidents)")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "buffered": len(self._ring),
            "dropped": self.dropped,
            "events": [e.as_dict() for e in self._ring],
            "incidents": [i.as_dict() for i in self.incidents],
            "incidents_suppressed": self.incidents_suppressed,
        }
