"""In-memory span recording and self-time arithmetic.

A span is ``(name, tag, start, end, parent)``.  The recorder is
single-threaded and strictly nested (the simulator is one thread), so a
span's children never overlap and its *self time* is its duration minus
the durations of its direct children.  Spans stay in memory during the
run and are written out once, at exit.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Parent index of a span opened with no other span active.
NO_PARENT = -1


class SpanRecorder:
    """Flat parallel lists; ``begin`` returns the index ``end`` closes."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.tags: List[Any] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def begin(self, name: str, tag: Any = None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.tags.append(tag)
        self.parents.append(self._stack[-1] if self._stack else NO_PARENT)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int) -> float:
        """Close span ``idx``; returns its duration."""
        now = self.clock()
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(
                f"span {idx} ({self.names[idx]}) closed out of order")
        self._stack.pop()
        self.ends[idx] = now
        return now - self.starts[idx]

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def self_times(self) -> List[float]:
        return self_times(self.starts, self.ends, self.parents)

    def write(self, path: str, meta: Optional[dict] = None) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        doc = {
            "meta": meta or {},
            "columns": ["name", "tag", "start_s", "end_s", "parent"],
            "spans": [
                [self.names[i], self.tags[i],
                 round(self.starts[i] - t0, 9), round(self.ends[i] - t0, 9),
                 self.parents[i]]
                for i in range(len(self.names))
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


def self_times(starts: List[float], ends: List[float],
               parents: List[int]) -> List[float]:
    """Per-span self time: duration minus direct children's durations."""
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for i, parent in enumerate(parents):
        if parent != NO_PARENT:
            out[parent] -= ends[i] - starts[i]
    return out


def self_time_by_name(rec: SpanRecorder) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for name, own in zip(rec.names, rec.self_times()):
        totals[name] += own
    return dict(totals)
