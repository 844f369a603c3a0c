"""Recovery of deadlocked goroutines while preserving Go semantics (§5.5).

Reclaiming a deadlocked goroutine naively could fire finalizers attached
to objects that, in the unmodified runtime, would simply never be
collected — an observable semantic difference (the paper's Listing 6).
GOLF therefore splits detection and recovery across two GC cycles:

- cycle *k*: the goroutine is reported, placed in a pending-to-reclaim
  state and *scheduled for marking*; while marking the resources only it
  can reach, the GC checks for finalizers.  If any exist the goroutine is
  parked permanently in the ``DEADLOCKED`` state, which future cycles
  treat as live, so its memory stays consistently reachable and the
  deadlock is reported exactly once.
- cycle *k+1*: pending goroutines without finalizers are forcefully shut
  down (the scheduler purges sudogs and semaphore-table entries, and the
  body generator is dropped unresumed so deferred code cannot run); their
  now-unreferenced memory is swept in the normal way.

Deferred code and forced reclaim — an intentional asymmetry
-----------------------------------------------------------

A *panicking* goroutine runs its deferred code: the scheduler throws the
panic into the body, so ``try``/``finally`` blocks and ``Defer``-registered
callables execute during the unwind, exactly as Go runs defers while a
panic propagates.  A *reclaimed* goroutine does **not**: its body is
dropped at the blocked yield point without ever being resumed, so for the
whole lifetime of the simulated program neither its ``finally`` blocks
nor its ``defers`` list run (the descriptor's cleanup discards the
``Defer``-registered callables outright — they *never* execute).  The
one host-level caveat: CPython must eventually unwind the suspended
frame, so :meth:`Runtime.shutdown` closes the parked body as part of
tearing the process down — at that point a ``try/finally`` written in
the body does execute Python-side, but every instruction it yields is
discarded, so it cannot touch channels, locks, or the heap.  This is
the simulated analog of process exit, where Go does not run pending
defers either.

This mirrors GOLF's design rather than a limitation of the simulator.  A
deadlocked goroutine is, by the detector's proof, permanently blocked: in
the unmodified runtime its defers would *never* have run either — the
goroutine would simply sit blocked until process exit.  Running them at
reclaim time would therefore *introduce* behavior the original program
could not exhibit (the same argument §5.5 makes for finalizers, except
finalizers get the conservative keep-alive treatment because collection
itself would otherwise trigger them; defers have no such trigger and can
be dropped outright).  The regression tests in
``tests/test_panic_recover.py`` pin both halves of this contract:
panicked goroutines' ``finally`` blocks run, reclaimed goroutines' do
not.
"""

from __future__ import annotations

from collections import deque
from typing import Tuple

from repro.gc.heap import Heap
from repro.runtime.goroutine import Goroutine


def scan_and_mark_subgraph(heap: Heap,
                           g: Goroutine) -> Tuple[bool, int, int]:
    """Mark everything reachable from a deadlocked goroutine, checking
    for finalizers on objects not already marked live.

    Objects that are already marked are shared with live goroutines and
    will not be reclaimed, so their finalizers are irrelevant here; the
    scan only inspects (and marks) the part of the subgraph that is
    exclusively reachable through deadlocked goroutines.

    Returns ``(found_finalizer, mark_work_units, exclusive_bytes)`` —
    the last being the bytes newly marked here, i.e. memory kept alive
    *only* by deadlocked goroutines (the liveness precision gap, kept
    per cycle as ``CycleStats.reachable_dead_bytes``).
    """
    found = False
    work = 0
    exclusive_bytes = 0
    gray: deque = deque()
    if heap.mark(g):
        exclusive_bytes += g.size
        gray.append(g)
    while gray:
        obj = gray.popleft()
        for ref in obj.referents():
            work += 1
            if isinstance(ref, Goroutine) and ref is not g:
                # Another goroutine reached through shared structures: it
                # is handled by its own detection verdict, not this scan.
                continue
            if heap.mark(ref):
                work += ref.scan_work
                exclusive_bytes += ref.size
                if ref.finalizer is not None:
                    found = True
                gray.append(ref)
    return found, work, exclusive_bytes
