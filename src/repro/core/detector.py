"""Reachable liveness: the GOLF deadlock detection fixpoint (paper §4).

A goroutine is *reachably live*, ``LIVE+(g)``, iff it is runnable (in the
broad sense: ``B(g) = ∅``, which includes waits the detector cannot
reason about), or some object in ``B(g)`` is transitively referenced by
another reachably live goroutine.  The least solution is computed with
the garbage collector's marking machinery:

1. seed the root set with runnable goroutines (and global data),
2. mark,
3. expand the root set with blocked goroutines whose blocking objects
   became marked,
4. repeat until a fixpoint; unmarked blocked goroutines are deadlocked.

Both collector modes run steps 3-4 as the reverse-index expansion the
paper sketches in section 5.3 (:func:`expand_liveness_fixpoint`): an
index from blocking objects to their waiters lets each newly marked
concurrency object unmask its blocked goroutines at once, so the
fixpoint completes in one more mark pass.  The paper's own
implementation, which restarts the mark once per root-set expansion
over every still-masked candidate (``O(N² + N·S)`` checks in the worst
case), survives as the reference :func:`expand_by_restart`: the
``fixpoint`` pair of :mod:`repro.equivalence` checks on the 125-program
corpus that both render the same verdicts, and the complexity sweep
(:mod:`repro.experiments.complexity`) measures the gap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.gc.heap import Heap
from repro.gc.marking import mark_from
from repro.runtime.goroutine import EPSILON, Goroutine, GStatus
from repro.runtime.objects import HeapObject

# Read once: an enum member read is a Python-level descriptor call on
# CPython 3.11, and these are compared once per goroutine per pass.
_WAITING = GStatus.WAITING
_DEAD = GStatus.DEAD


class DetectionResult:
    """Outcome of one reachable-liveness computation."""

    __slots__ = ("deadlocked", "mark_iterations",
                 "mark_work_units", "liveness_checks", "objects_marked")

    def __init__(self) -> None:
        self.deadlocked: List[Goroutine] = []
        self.mark_iterations = 0
        self.mark_work_units = 0
        self.liveness_checks = 0
        self.objects_marked = 0

    def __repr__(self) -> str:
        return (
            f"<detection deadlocked={len(self.deadlocked)} "
            f"iterations={self.mark_iterations} work={self.mark_work_units}>"
        )


def blocking_object_reachable(heap: Heap, obj: HeapObject) -> bool:
    """Is a blocking concurrency object reachable, for root expansion?

    The ``ε`` sentinel (nil channels, zero-case selects) is unreachable by
    definition.  Objects the collector cannot locate on the heap are
    conservatively deemed reachable (paper §5.3: "If GOLF cannot determine
    whether o is marked, it conservatively assumes [it is] reachable,
    e.g., as a global object").
    """
    if obj is EPSILON:
        return False
    if obj.addr == 0 or not heap.contains(obj):
        return True
    return heap.is_marked(obj)


def classify(g: Goroutine) -> bool:
    """Memoized: is ``g`` a detection candidate (detectably blocked)?

    The verdict depends only on wait state (status, wait reason,
    ``B(g)``, the system flag), and wait state bumps ``g.wait_seq`` at
    every transition — so a cached verdict is valid exactly while
    ``wait_seq`` is unchanged, and daemon-cadence re-checks reclassify
    only goroutines that parked, woke, or died since the previous pass.
    """
    seq = g.wait_seq
    if g._class_seq == seq:
        return g._class_val
    val = g.status is _WAITING and g.is_blocked_detectably
    g._class_seq = seq
    g._class_val = val
    return val


def seed_roots(heap: Heap, goroutines: Sequence[Goroutine],
               dead_global_hints: frozenset = frozenset(),
               ) -> Tuple[List[HeapObject], List[Goroutine]]:
    """Classify, mask and seed in one pass over ``goroutines``.

    Returns ``(roots, candidates)``: GOLF's initial root set ``R'_0`` —
    global data (minus ``dead_global_hints``, the section 8 extension
    that lets the fixpoint see past globally reachable channels) plus
    every goroutine that is runnable in the broad sense (``B(g) = ∅``)
    or kept-deadlocked or pending reclaim (live forever, paper §5.5) —
    and the detectably blocked goroutines left masked for the fixpoint
    to decide.

    ``classify`` is memoized on ``wait_seq``, so at daemon cadence only
    goroutines whose wait state changed since the last pass pay the
    predicate; runtime-owned goroutines are filtered here, up front,
    never inside the fixpoint loop.  Both the atomic cycle (via
    :func:`detect`) and the incremental collector's MARK_SETUP window
    call this, so they mask the identical set.
    """
    if dead_global_hints:
        roots = list(heap.globals.referents_excluding(dead_global_hints))
    else:
        roots = [heap.globals]
    candidates = []
    for g in goroutines:
        if classify(g):
            g.masked = True
            candidates.append(g)
        elif g.status is not _DEAD:
            roots.append(g)
    return roots, candidates


def detect(heap: Heap, goroutines: Sequence[Goroutine],
           on_the_fly: bool = True,
           dead_global_hints: frozenset = frozenset(),
           extra_roots: Sequence[HeapObject] = ()) -> DetectionResult:
    """Compute reachable liveness over ``goroutines``.

    Expects :meth:`Heap.begin_cycle` to have been called (fresh mark
    epoch).  On return, every reachably live object is marked, candidates
    found deadlocked remain masked (callers decide how to report/keep
    them), and live goroutines are unmasked.

    One mark pass from the seed roots, then
    :func:`expand_liveness_fixpoint` — the two steps the incremental
    collector runs as its concurrent drain and its mark-termination
    call.  ``on_the_fly=False`` runs the reference
    :func:`expand_by_restart` instead.

    ``dead_global_hints`` removes the named globals from the liveness
    roots; since hinted objects are ordinary heap allocations, the
    reachability check then treats them like any other unmarked object.

    ``extra_roots`` are additional live references the runtime knows
    about beyond goroutine stacks and globals — the operands of
    instructions in flight on virtual processors.  Their owners are
    running goroutines (already roots), so including them cannot make a
    blocked goroutine live that Go's precise stack scan would not.
    """
    result = DetectionResult()
    roots, candidates = seed_roots(heap, goroutines, dead_global_hints)
    roots.extend(extra_roots)
    result.mark_work_units, result.objects_marked = mark_from(
        heap, roots, respect_masks=True)
    result.mark_iterations = 1
    expand = expand_liveness_fixpoint if on_the_fly else expand_by_restart
    result.deadlocked = expand(heap, candidates, result)
    return result


def expand_liveness_fixpoint(heap: Heap, candidates: List[Goroutine],
                             result: DetectionResult) -> List[Goroutine]:
    """Root-set expansion to fixpoint over still-masked candidates.

    Assumes an initial mark pass has already run (full roots in the
    atomic cycle; the concurrent MARKING phase plus the termination
    rescan in the incremental cycle — both paths share this function,
    so the two ``gc_mode`` values render identical verdicts).  Indexes
    each candidate's blocking objects; a candidate with an object
    already marked, or one the collector cannot locate, is live at
    once.  One mark pass from those then unmasks the waiters of every
    object it newly marks, and traces them in the same pass.

    One liveness check is counted per (candidate, blocking object) pair
    whose object ends up marked, whenever that is found; the expansion
    pass adds its work to ``result`` but no mark iteration.  Returns
    the goroutines left masked: the deadlocked set.
    """
    waiters: Dict[int, List[Goroutine]] = {}
    live: List[Goroutine] = []
    for g in candidates:
        found = False
        for obj in g.blocked_on:
            if obj is EPSILON:
                continue
            if obj.addr == 0 or not heap.contains(obj):
                found = True
            elif heap.is_marked(obj):
                result.liveness_checks += 1
                found = True
            else:
                waiters.setdefault(obj.addr, []).append(g)
        if found:
            g.masked = False
            live.append(g)

    def on_marked(obj: HeapObject) -> Optional[List[Goroutine]]:
        blocked = waiters.get(obj.addr)
        if not blocked:
            return None
        extra: List[Goroutine] = []
        for g in blocked:
            result.liveness_checks += 1
            if g.masked:
                g.masked = False
                extra.append(g)
        return extra

    if live:
        work, marked = mark_from(heap, live, respect_masks=True,
                                 on_marked=on_marked)
        result.mark_work_units += work
        result.objects_marked += marked
    return [g for g in candidates if g.masked]


def expand_by_restart(heap: Heap, candidates: List[Goroutine],
                      result: DetectionResult) -> List[Goroutine]:
    """The paper's implementation of the expansion, kept as the
    reference: rescan every still-masked candidate, restart the mark
    from the newly live ones, repeat until nothing changes.  Same
    contract as :func:`expand_liveness_fixpoint`, but each round is one
    more mark iteration and re-checks every pending pair."""
    pending = list(candidates)
    while True:
        newly_live = []
        still_pending = []
        for g in pending:
            result.liveness_checks += len(g.blocked_on)
            for obj in g.blocked_on:
                if blocking_object_reachable(heap, obj):
                    newly_live.append(g)
                    break
            else:
                still_pending.append(g)
        if not newly_live:
            break
        for g in newly_live:
            g.masked = False
        work, marked = mark_from(heap, newly_live, respect_masks=True)
        result.mark_iterations += 1
        result.mark_work_units += work
        result.objects_marked += marked
        pending = still_pending
    return pending


def reexpand_on_wake(heap: Heap, g: Goroutine,
                     gray: List[HeapObject]) -> None:
    """Re-admit a masked candidate that a mutator woke mid-cycle.

    The paper's wake-during-detection case: while the incremental
    collector is concurrently marking, a live goroutine may complete the
    operation a masked candidate is blocked on and wake it.  The wake
    itself is the liveness proof — only a goroutine that could reach the
    blocking object can perform it — so the candidate rejoins the root
    set: unmask, shade its descriptor, and let the marker trace its
    stack.  This is the fixpoint's conclusion arriving early, never a
    soundness hazard; a wake that reaches a goroutine the detector
    already *reported* still trips ``SchedulerError``.
    """
    g.masked = False
    if heap.mark(g):
        gray.append(g)
