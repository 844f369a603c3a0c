"""Property-based tests: the detector vs a brute-force LIVE+ oracle.

Random heap graphs and goroutine states are generated directly (stack
references are injected through the goroutine's pending-value slot, which
the stack scanner treats as stack content).  A brute-force fixpoint over
the same definition of reachable liveness (paper, section 4.1) serves as
the oracle; both detector strategies must agree with it exactly.  The
memoized classification every pass starts from is checked against the
predicate it caches over the whole corpus.
"""

from hypothesis import given, settings, strategies as st

from repro.core import detector
from repro.core.config import GolfConfig
from repro.core.detector import (
    DetectionResult,
    detect,
    expand_liveness_fixpoint,
    seed_roots,
)
from repro.core.masking import unmask_all
from repro.equivalence import Leg, corpus, run_leg
from repro.gc.heap import Heap
from repro.gc.marking import mark_from
from repro.runtime.goroutine import EPSILON, Goroutine, GStatus
from repro.runtime.objects import Box
from repro.runtime.waitreason import WaitReason


class GraphCase:
    """A randomly generated heap + goroutine configuration."""

    def __init__(self, heap, objects, goroutines):
        self.heap = heap
        self.objects = objects
        self.goroutines = goroutines


@st.composite
def graph_cases(draw):
    heap = Heap()
    n_objects = draw(st.integers(min_value=0, max_value=12))
    objects = [heap.allocate(Box(None)) for _ in range(n_objects)]

    # Random object-to-object references.
    for obj in objects:
        fan_out = draw(st.integers(min_value=0, max_value=2))
        if fan_out and objects:
            targets = draw(st.lists(
                st.sampled_from(objects), min_size=0, max_size=fan_out))
            obj.value = list(targets)

    # Random globals.
    if objects and draw(st.booleans()):
        heap.globals.set("g0", draw(st.sampled_from(objects)))

    n_goroutines = draw(st.integers(min_value=1, max_value=6))
    goroutines = []
    for i in range(n_goroutines):
        g = Goroutine(goid=i + 1)
        heap.allocate(g, pinned=True)
        runnable = draw(st.booleans())
        if runnable or not objects:
            g.status = GStatus.RUNNABLE
        else:
            g.status = GStatus.WAITING
            g.wait_reason = draw(st.sampled_from([
                WaitReason.CHAN_SEND,
                WaitReason.CHAN_RECEIVE,
                WaitReason.SELECT,
                WaitReason.SYNC_MUTEX_LOCK,
            ]))
            blocked_pool = objects + [EPSILON]
            g.blocked_on = tuple(draw(st.lists(
                st.sampled_from(blocked_pool), min_size=1, max_size=2)))
        # Stack references, injected via the pending-value slot.
        if objects:
            g.pending_value = draw(st.lists(
                st.sampled_from(objects), min_size=0, max_size=3))
        goroutines.append(g)
    return GraphCase(heap, objects, goroutines)


def brute_force_deadlocked(case: GraphCase):
    """Oracle: the least fixpoint of LIVE+ computed naively."""
    live = {
        g for g in case.goroutines
        if g.status in (GStatus.RUNNABLE, GStatus.RUNNING)
    }
    changed = True
    while changed:
        changed = False
        reachable = _reachable_from(case, live)
        for g in case.goroutines:
            if g in live or g.status != GStatus.WAITING:
                continue
            for obj in g.blocked_on:
                if obj is EPSILON:
                    continue
                if obj in reachable:
                    live.add(g)
                    changed = True
                    break
    return {
        g for g in case.goroutines
        if g.status == GStatus.WAITING and g not in live
    }


def _reachable_from(case, live_goroutines):
    """Transitive closure of REF from globals and live goroutines,
    never tracing *through* a non-live goroutine."""
    live_set = set(live_goroutines)
    seen = set()
    stack = [case.heap.globals] + list(live_goroutines)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Goroutine) and obj not in live_set:
            continue  # masked: unreached goroutines are opaque
        for ref in obj.referents():
            stack.append(ref)
    return {obj for obj in case.objects if id(obj) in seen}


@settings(max_examples=150, deadline=None)
@given(case=graph_cases())
def test_restart_strategy_matches_oracle(case):
    expected = brute_force_deadlocked(case)
    case.heap.begin_cycle()
    result = detect(case.heap, case.goroutines, on_the_fly=False)
    assert set(result.deadlocked) == expected


@settings(max_examples=150, deadline=None)
@given(case=graph_cases())
def test_on_the_fly_strategy_matches_oracle(case):
    expected = brute_force_deadlocked(case)
    case.heap.begin_cycle()
    result = detect(case.heap, case.goroutines, on_the_fly=True)
    assert set(result.deadlocked) == expected


@settings(max_examples=100, deadline=None)
@given(case=graph_cases())
def test_strategies_agree_and_unmask_live(case):
    case.heap.begin_cycle()
    restart = detect(case.heap, case.goroutines, on_the_fly=False)
    deadlocked = set(restart.deadlocked)
    # Live goroutines must come out unmasked; deadlocked ones masked.
    for g in case.goroutines:
        if g.status == GStatus.WAITING:
            assert g.masked == (g in deadlocked)

    # Rebuild the identical case state for the other strategy.
    for g in case.goroutines:
        g.masked = False
    case.heap.begin_cycle()
    otf = detect(case.heap, case.goroutines, on_the_fly=True)
    assert set(otf.deadlocked) == deadlocked


@settings(max_examples=150, deadline=None)
@given(case=graph_cases())
def test_split_entry_matches_detect(case):
    """The incremental collector's two steps — a plain mark from the
    seed roots, then ``expand_liveness_fixpoint`` at mark termination —
    are one ``detect`` call, counts included, and reach the restart
    reference's verdicts."""
    case.heap.begin_cycle()
    whole = detect(case.heap, case.goroutines)

    unmask_all(case.goroutines)
    case.heap.begin_cycle()
    split = DetectionResult()
    roots, candidates = seed_roots(case.heap, case.goroutines)
    split.mark_work_units, _ = mark_from(case.heap, roots,
                                         respect_masks=True)
    deadlocked = expand_liveness_fixpoint(case.heap, candidates, split)
    assert deadlocked == whole.deadlocked
    assert split.liveness_checks == whole.liveness_checks
    assert split.mark_work_units == whole.mark_work_units

    unmask_all(case.goroutines)
    case.heap.begin_cycle()
    restart = detect(case.heap, case.goroutines, on_the_fly=False)
    assert set(restart.deadlocked) == set(deadlocked)


@settings(max_examples=100, deadline=None)
@given(case=graph_cases())
def test_runnable_goroutines_never_deadlocked(case):
    case.heap.begin_cycle()
    result = detect(case.heap, case.goroutines)
    runnable = {
        g for g in case.goroutines
        if g.status in (GStatus.RUNNABLE, GStatus.RUNNING)
    }
    assert not (runnable & set(result.deadlocked))


@settings(max_examples=100, deadline=None)
@given(case=graph_cases())
def test_epsilon_only_blockers_always_deadlocked(case):
    case.heap.begin_cycle()
    result = detect(case.heap, case.goroutines)
    for g in case.goroutines:
        if (g.status == GStatus.WAITING
                and g.blocked_on
                and all(o is EPSILON for o in g.blocked_on)):
            assert g in set(result.deadlocked)


def test_memoized_classification_matches_its_predicate(monkeypatch):
    """``classify`` caches ``status is WAITING and is_blocked_detectably``
    per ``wait_seq``.  Over the corpus at procs 2, in both collector
    modes with the daemon ticking every 1 ms, every verdict it returns —
    cached or fresh — must equal the predicate evaluated afresh."""
    memoized = detector.classify
    calls, cached, wrong = [], [], []

    def checked(g):
        hit = g._class_seq == g.wait_seq
        verdict = memoized(g)
        if verdict != (g.status is GStatus.WAITING
                       and g.is_blocked_detectably):
            wrong.append((g.goid, g.status, g.wait_reason, hit, verdict))
        calls.append(verdict)
        cached.append(hit)
        return verdict

    monkeypatch.setattr(detector, "classify", checked)
    for mode in ("atomic", "incremental"):
        leg = Leg(mode, lambda mode=mode: GolfConfig(gc_mode=mode),
                  hook=lambda rt, _p: rt.detect_partial_deadlock(
                      interval_ms=1.0))
        for program in corpus():
            run_leg(leg, program, procs=2, seed=7)
    assert not wrong, wrong[:10]
    # Non-vacuity: both verdicts occur, and the memo is actually hit.
    assert any(calls) and not all(calls)
    assert any(cached)
