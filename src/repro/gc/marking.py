"""The tricolor marking engine.

Objects are conceptually white (unmarked), gray (marked, on the work
queue) or black (marked, scanned).  ``mark_from`` drains a gray queue
seeded with roots, counting each traversed reference as one unit of mark
work — the quantity the paper meters when comparing GOLF's marking phase
against the baseline (Figure 4): GOLF performs the same pointer
traversals, just split across iterations.

When ``respect_masks`` is set, goroutine descriptors whose address is
masked (GOLF's obfuscation of the all-goroutines array and semaphore
table) are ignored entirely: they are neither marked nor traced until the
detector unmasks them.

The engine is written for throughput: plain-list LIFO gray stacks (no
deque, no per-object closure calls) with referents drained in batches.
Both ``work_units`` and ``objects_marked`` are order-independent —
``scan_work`` is charged once per newly marked object and one unit per
traversed edge of each scanned object, and the marked set is the fixpoint
closure of the roots — so swapping the original FIFO drain for LIFO
stacks changes no observable quantity.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

from repro.gc.heap import Heap
from repro.runtime.goroutine import Goroutine
from repro.runtime.objects import HeapObject

#: Callback invoked with each newly marked object; may return extra roots
#: (used by the on-the-fly root expansion optimization).
OnMarked = Callable[[HeapObject], Optional[List[HeapObject]]]


def mark_from(
    heap: Heap,
    roots: Iterable[HeapObject],
    respect_masks: bool = False,
    on_marked: Optional[OnMarked] = None,
) -> Tuple[int, int]:
    """Mark everything transitively reachable from ``roots``.

    Returns ``(work_units, objects_marked)`` where work units count
    traversed references (pointer visits), the paper's measure of marking
    work.
    """
    heap_mark = heap.mark
    work = 0
    marked = 0
    #: Roots and on-the-fly extras pending a mark attempt.
    pend: List[HeapObject] = list(roots)
    #: Marked-but-unscanned objects.
    gray: List[HeapObject] = []
    # The mark-check block appears twice (root seeding and edge scan) on
    # purpose: checking each referent inline while iterating avoids
    # double-handling every edge through the pending stack, which is the
    # difference between this loop and a naive worklist.  Edges charge
    # one work unit each *before* the mask check, exactly as the
    # original engine did.
    while True:
        while pend:
            obj = pend.pop()
            if respect_masks and isinstance(obj, Goroutine) and obj.masked:
                continue
            if heap_mark(obj):
                marked += 1
                work += obj.scan_work
                gray.append(obj)
                if on_marked is not None:
                    extra = on_marked(obj)
                    if extra:
                        pend.extend(extra)
        if not gray:
            return work, marked
        for ref in gray.pop().referents():
            work += 1
            if respect_masks and isinstance(ref, Goroutine) and ref.masked:
                continue
            if heap_mark(ref):
                marked += 1
                work += ref.scan_work
                gray.append(ref)
                if on_marked is not None:
                    extra = on_marked(ref)
                    if extra:
                        pend.extend(extra)


def push_roots(
    heap: Heap,
    roots: Iterable[HeapObject],
    gray: List[HeapObject],
    respect_masks: bool = False,
) -> Tuple[int, int]:
    """Mark ``roots`` and enqueue them gray *without* draining.

    The incremental collector's MARK_SETUP: roots are shaded under STW,
    then :func:`drain_budget` traces from them in bounded steps
    interleaved with the mutator.  Work accounting matches
    :func:`mark_from` (``scan_work`` charged per newly marked object), so
    setup + complete drain totals the same work as one atomic pass over
    an unchanged heap.
    """
    heap_mark = heap.mark
    work = 0
    marked = 0
    for obj in roots:
        if respect_masks and isinstance(obj, Goroutine) and obj.masked:
            continue
        if heap_mark(obj):
            marked += 1
            work += obj.scan_work
            gray.append(obj)
    return work, marked


def drain_budget(
    heap: Heap,
    gray: List[HeapObject],
    budget: int,
    respect_masks: bool = False,
) -> Tuple[int, int]:
    """Drain up to ``budget`` work units from a shared gray queue.

    One bounded MARKING step of the incremental collector.  The queue is
    shared with the write barrier's gray sink, so objects shaded by
    concurrent mutator stores are traced here too.  Returns
    ``(work_units, objects_marked)`` for the step; the queue being empty
    afterwards signals mark termination.
    """
    heap_mark = heap.mark
    work = 0
    marked = 0
    while gray and work < budget:
        for ref in gray.pop().referents():
            work += 1
            if respect_masks and isinstance(ref, Goroutine) and ref.masked:
                continue
            if heap_mark(ref):
                marked += 1
                work += ref.scan_work
                gray.append(ref)
    return work, marked
