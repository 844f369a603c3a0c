"""Internal-consistency checking for the runtime (schedcheck analog).

``check_invariants`` sweeps the scheduler, heap and wait queues for
states that should be impossible — a runnable goroutine parked in the
semaphore table, an active sudog whose owner is not waiting, broken heap
accounting — and returns human-readable violations.  The property-based
suites call it after every random program, so any regression that bends
an internal invariant surfaces immediately even when the program's
visible behavior happens to stay correct.

The chaos engine (:mod:`repro.chaos`) leans on this module as its main
oracle: it calls ``check_invariants`` after every injected fault, so the
checks here also cover the states only faults can produce — a reclaimed
goroutine's sudog lingering in a channel or semaphore wait queue, a
pooled descriptor still registered in the semaphore table, dead
goroutines holding simulated stack bytes, and live-byte accounting after
forced reclamation of a leaked subgraph.
"""

from __future__ import annotations

from typing import List

from repro.runtime.goroutine import GStatus


def check_invariants(rt) -> List[str]:
    """Return a list of invariant violations (empty = healthy)."""
    problems: List[str] = []
    sched = rt.sched

    # -- run queue ----------------------------------------------------------
    for g in sched.runq:
        if g.status != GStatus.RUNNABLE:
            problems.append(
                f"runq holds non-runnable goroutine {g.goid} ({g.status})")

    # -- processors ----------------------------------------------------------
    holding = [p for p in sched.procs if p.g is not None]
    for p in holding:
        if p.g.status != GStatus.RUNNING:
            problems.append(
                f"proc {p.pid} holds non-running goroutine "
                f"{p.g.goid} ({p.g.status})")
        if p.instr is None:
            problems.append(
                f"proc {p.pid} holds goroutine {p.g.goid} without an "
                f"instruction")
    # The run loop's processor walk stops once it has seen this many
    # busy processors: a count that drifts hides a processor from it.
    if sched._busy != len(holding):
        problems.append(
            f"busy count {sched._busy} != {len(holding)} processors "
            f"holding a goroutine")

    # -- tickers -------------------------------------------------------------
    for _, _, t in sched._tickers:
        if not t.active:
            problems.append("ticker heap holds a removed ticker")

    # -- free pool -------------------------------------------------------------
    for g in sched.gfree:
        if g.status != GStatus.DEAD:
            problems.append(
                f"free pool holds live goroutine {g.goid} ({g.status})")
        if g.sudogs:
            problems.append(f"pooled goroutine {g.goid} retains sudogs")

    # -- waiting goroutines -------------------------------------------------------
    for g in sched.allgs:
        if g.status == GStatus.WAITING:
            if g.wait_reason is None:
                problems.append(
                    f"waiting goroutine {g.goid} has no wait reason")
            elif g.is_blocked_detectably and not g.blocked_on:
                problems.append(
                    f"detectably blocked goroutine {g.goid} has "
                    f"empty B(g)")
            if g.is_blocked_detectably and g.wake_at is not None:
                # B(g)-blocked waits have no deadline: a timer on a
                # detectably blocked goroutine means a spurious wakeup
                # could resume it past the detector's reasoning.
                problems.append(
                    f"detectably blocked goroutine {g.goid} has a "
                    f"timer deadline ({g.wake_at})")
        elif g.status in (GStatus.RUNNABLE, GStatus.RUNNING):
            for sd in g.sudogs:
                if sd.active:
                    problems.append(
                        f"runnable goroutine {g.goid} has an active sudog")

    # -- dead goroutines (descriptor hygiene after reclaim/panic) -----------
    for g in sched.allgs:
        if g.status != GStatus.DEAD:
            continue
        if g.stack_bytes != 0:
            problems.append(
                f"dead goroutine {g.goid} retains {g.stack_bytes} "
                f"stack bytes")
        if g.defers:
            problems.append(
                f"dead goroutine {g.goid} retains {len(g.defers)} "
                f"deferred callables")
        if g.panicking is not None:
            problems.append(
                f"dead goroutine {g.goid} still flagged panicking")

    # -- descriptor residency ------------------------------------------------
    # Every descriptor the scheduler knows is a pinned heap allocation;
    # losing one from the heap (while the scheduler still schedules it)
    # means the accounting and the collector disagree about what exists.
    for g in sched.allgs:
        if not rt.heap.contains(g):
            problems.append(
                f"goroutine {g.goid} in allgs but not on the heap")

    # -- channel wait queues ---------------------------------------------------------
    terminal = (GStatus.DEAD,)
    for obj in rt.heap.objects():
        if obj.kind != "chan":
            continue
        for queue_name in ("sendq", "recvq"):
            for sd in getattr(obj, queue_name):
                if not sd.active:
                    continue
                g = sd.g
                if g.status in terminal:
                    problems.append(
                        f"channel 0x{obj.addr:x} {queue_name} holds an "
                        f"active sudog of dead goroutine {g.goid}")
                elif sd not in g.sudogs:
                    problems.append(
                        f"active sudog on 0x{obj.addr:x} not owned by "
                        f"goroutine {g.goid}")

    # -- semaphore table ----------------------------------------------------------------
    # PENDING_RECLAIM is legitimate here: a reported sem-blocked
    # goroutine stays queued until the *next* cycle's reclaim purges it.
    sem_ok = (GStatus.WAITING, GStatus.DEADLOCKED, GStatus.PENDING_RECLAIM)
    for key in sched.semtable.keys():
        for g in sched.semtable.waiters(key):
            if g.status not in sem_ok:
                problems.append(
                    f"semtable key 0x{key:x} holds goroutine {g.goid} "
                    f"in state {g.status}")

    # -- heap accounting --------------------------------------------------------------------
    actual_bytes = sum(o.size for o in rt.heap.objects())
    if rt.heap.live_bytes != actual_bytes:
        problems.append(
            f"heap byte accounting drift: counter={rt.heap.live_bytes} "
            f"actual={actual_bytes}")
    actual_objects = sum(1 for _ in rt.heap.objects())
    if rt.heap.live_objects != actual_objects:
        problems.append(
            f"heap object accounting drift: "
            f"counter={rt.heap.live_objects} actual={actual_objects}")

    return problems
