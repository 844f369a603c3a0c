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

Two implementations are provided, matching the paper's section 5.3:

- the *restart* strategy (the paper's implementation): full mark
  iterations alternate with root-expansion scans over all still-masked
  candidates (``O(N² + N·S)`` checks in the worst case);
- the *on-the-fly* strategy (the paper's sketched optimization): a
  reverse index from blocking objects to waiters lets newly marked
  concurrency objects enqueue their blocked goroutines immediately,
  completing in a single mark pass.

Both produce the same deadlocked set — on synthetic heaps in the
property tests, and on whole runs of the 125-program corpus by the
``fixpoint`` pair of :mod:`repro.equivalence`; they differ only in
iteration counts and bookkeeping cost.
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

    __slots__ = ("live", "deadlocked", "mark_iterations",
                 "mark_work_units", "liveness_checks", "objects_marked",
                 "proof_skips")

    def __init__(self) -> None:
        self.live: List[Goroutine] = []
        self.deadlocked: List[Goroutine] = []
        self.mark_iterations = 0
        self.mark_work_units = 0
        self.liveness_checks = 0
        self.objects_marked = 0
        self.proof_skips = 0

    def __repr__(self) -> str:
        return (
            f"<detection live={len(self.live)} "
            f"deadlocked={len(self.deadlocked)} "
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


#: Classification values cached on the goroutine descriptor.
CLASS_NEITHER = 0   # not a detection candidate (runnable, sleeping, DEAD...)
CLASS_CANDIDATE = 1  # detectably blocked: masked and fixpoint-checked
CLASS_PROOF_SKIP = 2  # detectably blocked but statically proven live


def classify(g: Goroutine) -> int:
    """Memoized detector classification of ``g``.

    The verdict depends only on wait state (status, wait reason,
    ``B(g)``, the system flag) and the ``proven_leak_free`` tags of the
    blocking objects.  Wait state bumps ``g.wait_seq`` at every
    transition, and proof tags are fixed at channel creation — so a
    cached verdict is valid exactly while ``wait_seq`` is unchanged, and
    daemon-cadence re-checks reclassify only goroutines that parked,
    woke, or died since the previous pass.
    """
    seq = g.wait_seq
    if g._class_seq == seq:
        return g._class_val
    if g.status is _WAITING and g.is_blocked_detectably:
        val = CLASS_PROOF_SKIP if proof_skip_eligible(g) else CLASS_CANDIDATE
    else:
        val = CLASS_NEITHER
    g._class_seq = seq
    g._class_val = val
    return val


def proof_skip_eligible(g: Goroutine) -> bool:
    """Whether static proofs let the detector treat ``g`` as live.

    True when the goroutine's entire (non-empty) blocking set consists
    of channels certified leak-free by ``repro.staticcheck`` (the
    ``proven_leak_free`` tag applied at ``make_chan`` time from the
    installed :class:`~repro.staticcheck.proofs.ProofRegistry`).  The
    certificate is a whole-program property — the composition proves no
    reachable terminal state leaves anyone blocked on the channel — so a
    goroutine blocked only on proven channels is guaranteed to be woken
    eventually and the fixpoint may seed it as a root without scanning.
    The ``ε`` sentinel and non-channel objects never carry the tag, so
    nil-channel and sync-object waits are never skipped.  With no
    registry installed no channel is tagged and this is always False —
    the tag itself is the proofs-on/off switch.
    """
    if not g.blocked_on:
        return False
    for obj in g.blocked_on:
        if not getattr(obj, "proven_leak_free", False):
            return False
    return True


def seed_roots(heap: Heap, goroutines: Sequence[Goroutine],
               dead_global_hints: frozenset = frozenset(),
               ) -> Tuple[List[HeapObject], List[Goroutine], int]:
    """Classify, mask and seed in one pass over ``goroutines``.

    Returns ``(roots, candidates, proof_skips)``: GOLF's initial root
    set ``R'_0`` — global data (minus ``dead_global_hints``, the
    section 8 extension that lets the fixpoint see past globally
    reachable channels) plus every goroutine that is runnable in the
    broad sense (``B(g) = ∅``), kept-deadlocked or pending reclaim
    (live forever, paper §5.5), or proof-skipped — and the detectably
    blocked goroutines left masked for the fixpoint to decide.

    ``classify`` is memoized on ``wait_seq``, so at daemon cadence only
    goroutines whose wait state changed since the last pass pay the
    eligibility checks; proof-skipped and runtime-owned goroutines are
    filtered here, up front, never inside the fixpoint loop.  Both the
    atomic cycle (via :func:`detect`) and the incremental collector's
    MARK_SETUP window call this, so they mask the identical set.
    """
    if dead_global_hints:
        roots = list(heap.globals.referents_excluding(dead_global_hints))
    else:
        roots = [heap.globals]
    candidates = []
    proof_skips = 0
    for g in goroutines:
        c = classify(g)
        if c == CLASS_NEITHER:
            if g.status is not _DEAD:
                roots.append(g)
        elif c == CLASS_CANDIDATE:
            g.masked = True
            candidates.append(g)
        else:
            g.masked = False
            proof_skips += 1
            roots.append(g)
    return roots, candidates, proof_skips


def detect(heap: Heap, goroutines: Sequence[Goroutine],
           on_the_fly: bool = False,
           dead_global_hints: frozenset = frozenset(),
           extra_roots: Sequence[HeapObject] = ()) -> DetectionResult:
    """Compute reachable liveness over ``goroutines``.

    Expects :meth:`Heap.begin_cycle` to have been called (fresh mark
    epoch).  On return, every reachably live object is marked, candidates
    found deadlocked remain masked (callers decide how to report/keep
    them), and live goroutines are unmasked.

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
    roots, candidates, result.proof_skips = seed_roots(
        heap, goroutines, dead_global_hints)
    roots.extend(extra_roots)

    if on_the_fly:
        _detect_on_the_fly(heap, candidates, roots, result)
    else:
        _detect_restart(heap, candidates, roots, result)

    deadlocked_set = set(id(g) for g in result.deadlocked)
    result.live = [
        g for g in goroutines
        if g.status is not _DEAD and id(g) not in deadlocked_set
    ]
    return result


def _detect_restart(heap: Heap, candidates: List[Goroutine],
                    roots: List[HeapObject], result: DetectionResult) -> None:
    """The paper's implementation: restart marking per root expansion."""
    work, marked = mark_from(heap, roots, respect_masks=True)
    result.mark_iterations = 1
    result.mark_work_units = work
    result.objects_marked = marked
    result.deadlocked = expand_liveness_fixpoint(heap, candidates, result)


def expand_liveness_fixpoint(heap: Heap, candidates: List[Goroutine],
                             result: DetectionResult) -> List[Goroutine]:
    """Root-set expansion to fixpoint over still-masked candidates.

    Assumes an initial mark pass has already run (full roots in the
    atomic cycle; the concurrent MARKING phase plus the termination
    rescan in the incremental cycle — both paths share this exact loop,
    so the two ``--gc-mode`` values render identical verdicts).  Marks
    the subgraphs of goroutines proven live, accumulates iteration/work/
    check counters into ``result``, and returns the goroutines left
    masked: the deadlocked set.
    """
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


def _detect_on_the_fly(heap: Heap, candidates: List[Goroutine],
                       roots: List[HeapObject],
                       result: DetectionResult) -> None:
    """Single-pass variant: newly marked concurrency objects immediately
    enqueue the goroutines blocked on them."""
    waiters: Dict[int, List[Goroutine]] = {}
    immediately_live: List[Goroutine] = []
    for g in candidates:
        conservative = False
        for obj in g.blocked_on:
            if obj is EPSILON:
                continue
            if obj.addr == 0 or not heap.contains(obj):
                conservative = True
                continue
            waiters.setdefault(obj.addr, []).append(g)
        if conservative:
            immediately_live.append(g)

    def on_marked(obj: HeapObject) -> Optional[List[HeapObject]]:
        blocked = waiters.get(obj.addr)
        if not blocked:
            return None
        extra: List[HeapObject] = []
        for g in blocked:
            result.liveness_checks += 1
            if g.masked:
                g.masked = False
                extra.append(g)
        return extra

    for g in immediately_live:
        g.masked = False
    work, marked = mark_from(
        heap, roots + list(immediately_live), respect_masks=True,
        on_marked=on_marked,
    )
    result.mark_iterations = 1
    result.mark_work_units = work
    result.objects_marked = marked
    result.deadlocked = [g for g in candidates if g.masked]
