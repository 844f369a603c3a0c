"""The goroutine scheduler: a discrete-event simulation with virtual cores.

The scheduler owns ``GOMAXPROCS`` virtual processors.  Dispatching a
runnable goroutine onto an idle processor resumes its generator to fetch
the next instruction; the processor stays busy for the instruction's
simulated duration, and the instruction's *effect* is applied at
completion time.  Long non-preemptible work (:class:`Work`) therefore
really does monopolize a processor, which is how interleaving- and
core-count-sensitive leak patterns (the paper's flaky microbenchmarks)
arise naturally.

Randomness — run-queue selection, instruction-cost jitter, select-case
choice — flows from a single seeded RNG, so every run is reproducible
from ``(program, procs, seed)``.
"""

from __future__ import annotations

import heapq
import random
from types import GeneratorType
from typing import Any, Callable, Dict, List, Optional, Tuple  # noqa: F401

from repro.errors import (
    GlobalDeadlockError,
    GoPanic,
    InvalidInstruction,
    SchedulerError,
)
from repro.runtime import executor
from repro.runtime.channel import Wakeup
from repro.runtime.clock import Clock
from repro.runtime.goroutine import GStatus, Goroutine
from repro.runtime.instructions import (
    OP_RUN_GC,
    OP_SLEEP,
    OP_WORK,
    Instruction,
)
from repro.runtime.objects import HeapObject
from repro.runtime.sema import SemaTable
from repro.runtime.sync import Mutex
from repro.runtime.waitreason import WaitReason
from repro.gc.heap import Heap

# Enum members, read once: CPython 3.11 resolves ``GStatus.RUNNING``
# through a Python-level descriptor on every access (about 130 ns against
# 15 for a module global), and the paths below read several per
# instruction.
_RUNNABLE = GStatus.RUNNABLE
_RUNNING = GStatus.RUNNING
_WAITING = GStatus.WAITING
_DEAD = GStatus.DEAD


class RunStatus:
    """Terminal states of :meth:`Scheduler.run`."""

    __slots__ = ()

    MAIN_EXITED = "main-exited"
    TIMEOUT = "timeout"
    IDLE = "idle"
    INSTRUCTION_LIMIT = "instruction-limit"


class _Proc:
    """A virtual processor (Go's ``P``)."""

    __slots__ = ("pid", "g", "instr", "busy_until")

    def __init__(self, pid: int):
        self.pid = pid
        self.g: Optional[Goroutine] = None
        self.instr: Optional[Instruction] = None
        self.busy_until = 0


class Ticker:
    """A host callback the run loop fires once per ``period_ns``.

    The handle :meth:`Scheduler.add_ticker` returns.  Go's ``sysmon``
    is the model: periodic runtime work without a P and without being
    a goroutine.
    """

    __slots__ = ("period_ns", "fn", "active")

    def __init__(self, period_ns: int, fn: Callable[[], None]):
        self.period_ns = period_ns
        self.fn = fn
        self.active = True


class Scheduler:
    """Schedules goroutines over ``procs`` virtual processors.

    Args:
        heap: the simulated heap (goroutine descriptors are allocated on
            it, pinned, since the runtime manages their lifecycle).
        clock: shared virtual clock.
        procs: GOMAXPROCS.
        seed: RNG seed; all scheduling non-determinism derives from it.
    """

    #: Simulated duration of an ordinary instruction (a constant).
    base_cost_ns = 200

    def __init__(self, heap: Heap, clock: Clock, procs: int = 1,
                 seed: int = 0):
        if procs < 1:
            raise ValueError("need at least one virtual processor")
        self.heap = heap
        self.clock = clock
        self.rng = random.Random(seed)
        self.semtable = SemaTable()
        self.procs = [_Proc(i) for i in range(procs)]
        #: How many of ``procs`` hold a goroutine.  ``p.g`` changes in
        #: three places — ``_start_instruction``, ``_complete``, ``kill``
        #: — and each keeps this in step; it is what lets the run loop's
        #: processor walk stop at the last busy one.
        self._busy = 0

        self.allgs: List[Goroutine] = []
        self.gfree: List[Goroutine] = []
        self.runq: List[Goroutine] = []
        self._timers: List[Tuple[int, int, int, Goroutine]] = []
        #: Pending tickers, ``(due_ns, seq, Ticker)``: host callbacks the
        #: run loop fires on a virtual-time period (see
        #: :meth:`add_ticker`).  The one other heap beside ``_timers``,
        #: which holds sleeping goroutines only.
        self._tickers: List[Tuple[int, int, Ticker]] = []
        self._timer_seq = 0
        self._next_goid = 1
        self.main_g: Optional[Goroutine] = None
        self._main_exited = False
        self.crashed: Optional[Tuple[Goroutine, BaseException]] = None
        self.instructions_executed = 0
        self.goroutines_spawned = 0
        self.goroutines_reused = 0
        #: Goroutine-scoped panics that killed a single goroutine without
        #: crashing the program (chaos injections, recovered-then-rethrown
        #: faults): list of ``(goid, message)``.
        self.goroutine_panics: List[Tuple[int, str]] = []
        #: Total processor-busy nanoseconds (mutator CPU time).
        self.cpu_busy_ns = 0
        #: Cond waiters that must reacquire their locker on wake.
        self._relock: Dict[int, Mutex] = {}
        #: Suspended bodies of forcibly reclaimed goroutines.  They are
        #: retained, never closed: if CPython finalized these frames it
        #: would run their ``finally`` blocks — the ``defer`` analog —
        #: but GOLF's forced shutdown must never execute deferred code.
        self._reclaimed_bodies: List[Any] = []

        # Hooks wired by the Runtime facade.
        self.gc_hook: Callable[[str], Any] = lambda reason: None
        self.alloc_hook: Callable[[], None] = lambda: None
        #: Address-masking policy (identity unless GOLF installs one).
        self.mask_key: Callable[[int], int] = lambda addr: addr
        #: Optional event tracer (see repro.trace.tracer): the one log
        #: of runtime transitions.
        self.tracer = None
        #: Optional telemetry hub (see repro.telemetry): counts context
        #: switches, GC cycles and leak reports.
        self.telemetry = None
        #: Optional select-case policy override (see repro.fuzz): called
        #: with the list of ready case indices, returns the chosen one.
        self.select_policy: Optional[Callable[[List[int]], int]] = None
        #: Chaos fault hook (see repro.chaos): called at every yield
        #: point — after an instruction's cost elapses, before its effect
        #: applies — with ``(goroutine, instruction)``.  May perturb the
        #: runtime (forced GC, clock jitter, panics into other
        #: goroutines) and may return an exception to deliver to the
        #: executing goroutine *instead of* running the instruction.
        self.fault_hook: Optional[
            Callable[[Goroutine, Instruction], Optional[BaseException]]
        ] = None
        #: The instruction interpreter applied at completion.  Tests swap
        #: in ``executor.execute_legacy`` to differentially check the
        #: flattened dispatch table against the original interpreter.
        self._execute = executor.execute
        #: Incremental GC hooks (wired only under --gc-mode incremental).
        #: ``gc_step_hook`` advances the in-flight cycle by one bounded
        #: work budget between time slices, returning True while a cycle
        #: is in flight; ``gc_request_hook`` enrolls a ``runtime.GC``
        #: caller as a cycle waiter (the executor parks it on GC_WAIT);
        #: ``gc_wake_hook`` notifies the collector that a masked
        #: detection candidate is being legitimately woken mid-cycle.
        self.gc_step_hook: Optional[Callable[[], bool]] = None
        self.gc_request_hook: Optional[Callable[[Goroutine], bool]] = None
        self.gc_wake_hook: Optional[Callable[[Goroutine], None]] = None

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------

    def spawn(self, fn: Callable[..., Any], *args: Any, name: str = "",
              system: bool = False, go_site: str = "",
              parent: Optional[Goroutine] = None) -> Goroutine:
        """Create a goroutine running ``fn(*args)``.

        Reuses a descriptor from the free pool when available, matching
        the Go runtime's ``*g`` recycling (paper, section 5.4).
        """
        gen = fn(*args)
        if type(gen) is not GeneratorType:
            raise TypeError(
                f"goroutine body must be a generator function, got {fn!r}"
            )
        if self.gfree:
            g = self.gfree.pop()
            self.goroutines_reused += 1
        else:
            g = Goroutine(goid=0)
            self.heap.allocate(g, pinned=True)
            self.allgs.append(g)
        g.goid = self._next_goid
        self._next_goid += 1
        g.bind(gen, go_site=go_site,
               parent_goid=parent.goid if parent else 0, name=name,
               fn_name=getattr(fn, "__name__", ""))
        g.name = name or f"goroutine-{g.goid}"
        g.is_system = system
        self.goroutines_spawned += 1
        if parent is not None:
            parent.spawned += 1
        self.runq.append(g)
        if self.main_g is None and not system:
            self.main_g = g
        if self.tracer is not None:
            self.tracer.on_create(g)
        return g

    # ------------------------------------------------------------------
    # Tickers
    # ------------------------------------------------------------------

    def add_ticker(self, interval_ns: int, fn: Callable[[], None]) -> Ticker:
        """Call ``fn()`` from the run loop every ``interval_ns`` (plus
        one ``base_cost_ns``, the cost model's charge for a lap), first
        one period from now.

        A ticker is re-armed from the clock as ``fn`` leaves it, so a GC
        pause that carries the clock past a due time delays that firing
        and every later one.  Firing executes no instruction: no RNG
        draw, no CPU accounting, no fault hook, no context switch, and
        never a GC-step boundary.  A pending ticker keeps :meth:`run`
        from going idle; an exception from ``fn`` propagates out of it.
        """
        t = Ticker(interval_ns + self.base_cost_ns, fn)
        self._arm_ticker(t)
        return t

    def remove_ticker(self, t: Ticker) -> None:
        """Stop ``t``; idempotent, and legal from inside its own ``fn``."""
        t.active = False
        # In place: run() holds a local alias of the heap.
        self._tickers[:] = [e for e in self._tickers if e[2] is not t]
        heapq.heapify(self._tickers)

    def _arm_ticker(self, t: Ticker) -> None:
        self._timer_seq += 1
        heapq.heappush(
            self._tickers,
            (self.clock.now + t.period_ns, self._timer_seq, t))

    def _fire_due_tickers(self) -> None:
        tickers = self._tickers
        while tickers and tickers[0][0] <= self.clock.now:
            t = heapq.heappop(tickers)[2]
            t.fn()
            if t.active:
                self._arm_ticker(t)

    # ------------------------------------------------------------------
    # Park / wake primitives
    # ------------------------------------------------------------------

    def park(self, g: Goroutine, reason: WaitReason,
             blocked_on: Tuple[HeapObject, ...],
             blocking_sema: Optional[HeapObject] = None) -> None:
        """Transition ``g`` to WAITING with ``B(g) = blocked_on``."""
        g.wait_seq += 1
        g.status = _WAITING
        g.wait_reason = reason
        g.blocked_on = blocked_on
        g.blocking_sema = blocking_sema
        if self.tracer is not None:
            self.tracer.on_park(g, reason)

    def park_on_timer(self, g: Goroutine, wake_at: int,
                      reason: WaitReason = WaitReason.SLEEP) -> None:
        """Park ``g`` until virtual time ``wake_at`` (non-detectable).

        The timer entry records the goid so a stale entry — left behind
        when the sleeper is woken early (spurious wakeup, injected
        panic) and its descriptor reused for a fresh goroutine — can
        never fire a wakeup at the new occupant.
        """
        self.park(g, reason, ())
        g.wake_at = wake_at
        self._timer_seq += 1
        heapq.heappush(self._timers,
                       (wake_at, self._timer_seq, g.goid, g))

    def wake(self, g: Goroutine, result: Any = None,
             exc: Optional[BaseException] = None) -> None:
        """Make a parked goroutine runnable, delivering ``result``/``exc``."""
        if g.status is not _WAITING:
            if g.status in (GStatus.PENDING_RECLAIM, GStatus.DEADLOCKED):
                raise SchedulerError(
                    f"wakeup for goroutine reported deadlocked: {g!r} — "
                    "GOLF soundness violation"
                )
            raise SchedulerError(f"cannot wake non-waiting goroutine {g!r}")
        if g.masked and self.gc_wake_hook is not None:
            # A masked detection candidate is being legitimately woken
            # while the incremental collector marks: GOLF root
            # re-expansion (the wake itself proves liveness).
            self.gc_wake_hook(g)
        for sd in g.sudogs:
            sd.active = False
        g.sudogs = ()
        g.wait_seq += 1
        g.blocked_on = ()
        g.wait_reason = None
        g.blocking_sema = None
        g.wake_at = None
        g.pending_value = result
        g.pending_exc = exc
        g.status = _RUNNABLE
        self.runq.append(g)
        if self.tracer is not None:
            self.tracer.on_wake(g)

    def apply_wakeups(self, wakeups: List[Wakeup]) -> None:
        """Resume the goroutines behind channel wakeup records.

        Translates per-sudog results into per-instruction results: a
        goroutine parked in a ``select`` receives ``(index, value, ok)``
        for the case that fired.
        """
        for w in wakeups:
            sd = w.sudog
            if not sd.active:
                continue
            g = sd.g
            if sd.select_index is None:
                self.wake(g, result=w.result, exc=w.exc)
                continue
            if w.exc is not None:
                self.wake(g, exc=w.exc)
            elif sd.is_send:
                self.wake(g, result=(sd.select_index, None, True))
            else:
                value, ok = w.result
                self.wake(g, result=(sd.select_index, value, ok))

    def wake_with_relock(self, g: Goroutine, locker: Mutex) -> None:
        """Wake a ``Cond`` waiter, which must reacquire its locker first.

        If the locker is contended the goroutine transitions directly to
        blocking on the mutex (wait reason changes from ``SYNC_COND_WAIT``
        to ``SYNC_MUTEX_LOCK``), as in Go.
        """
        if g.status is not _WAITING:
            raise SchedulerError(f"cannot wake non-waiting goroutine {g!r}")
        if locker.try_lock():
            self.wake(g, result=None)
            return
        g.wait_seq += 1
        g.wait_reason = WaitReason.SYNC_MUTEX_LOCK
        g.blocked_on = (locker,)
        g.blocking_sema = locker
        self.semtable.enqueue(self.mask_key(locker.sema_key()), g)

    # ------------------------------------------------------------------
    # Goroutine termination
    # ------------------------------------------------------------------

    def finish(self, g: Goroutine, value: Any = None) -> None:
        """Regular goroutine exit; descriptor returns to the free pool.

        Runs the goroutine's ``Defer``-registered callables in LIFO
        order first — they run on normal exit and on panic unwind alike,
        but never on GOLF's forced reclaim (which bypasses this method).
        """
        self._run_defers(g)
        g.finished_value = value
        g.finish()
        self.gfree.append(g)
        if self.tracer is not None:
            self.tracer.on_finish(g)
        if g is self.main_g:
            self._main_exited = True

    def _run_defers(self, g: Goroutine) -> None:
        defers, g.defers = g.defers, ()
        while defers:
            fn = defers.pop()
            try:
                fn()
            except Exception:
                # A failing deferred callable must not corrupt scheduler
                # state; Go would start a new panic here, which for the
                # non-blocking Defer analog we simply swallow.
                continue

    def reclaim_deadlocked(self, g: Goroutine) -> None:
        """GOLF forced shutdown of a deadlocked goroutine.

        Purges scheduler-side state the regular exit path never has to
        think about: semaphore-table entries and (via
        ``cleanup_after_deadlock``) sudogs, masks and wait bookkeeping.
        The body generator is dropped unresumed — deferred code must not
        run.
        """
        self._release(g)

    def kill(self, g: Goroutine) -> None:
        """Forcibly terminate ``g`` from a host-side recovery action.

        Used by checkpoint/restart recovery to tear a subsystem's
        goroutines down before re-spawning them: unlike
        :meth:`reclaim_deadlocked` (which only handles goroutines the
        collector already detached), the victim may still be runnable or
        even mid-instruction, so every scheduler-side residence — run
        queues, the holding processor, wait queues — is purged.  The
        body generator is dropped unresumed; deferred code must not run,
        matching GOLF's forced shutdown semantics.
        """
        if g is self.main_g:
            raise SchedulerError("cannot kill the main goroutine")
        if g.status is _DEAD:
            return
        if g in self.runq:
            self.runq.remove(g)
        for p in self.procs:
            if p.g is g:
                p.g = None
                p.instr = None
                self._busy -= 1
        self._release(g)

    def _release(self, g: Goroutine) -> None:
        """Return a forcibly stopped goroutine to the free pool: the
        scheduler-side release shared by :meth:`reclaim_deadlocked` and
        :meth:`kill`.  Its body is kept unresumed, never finished."""
        self.semtable.remove_goroutine(g)
        self._relock.pop(g.goid, None)
        if g.gen is not None:
            self._reclaimed_bodies.append(g.gen)
        g.cleanup_after_deadlock()
        self.gfree.append(g)
        if self.tracer is not None:
            self.tracer.on_reclaim(g)

    # ------------------------------------------------------------------
    # Chaos fault delivery (see repro.chaos)
    # ------------------------------------------------------------------

    def deliver_panic(self, g: Goroutine, exc: BaseException) -> bool:
        """Throw ``exc`` into ``g`` at its next scheduling point.

        Safe against every state the runtime can be in: a *waiting*
        victim is first purged from whatever wait queue holds it
        (sudogs, semaphore table, cond relock map) so no dangling
        back-pointer survives, then woken with the exception; a
        *runnable* victim has the exception staged as its pending
        delivery.  Running, dead, and reported-deadlocked goroutines are
        refused (return False): a goroutine GOLF has proven permanently
        blocked is frozen — faulting it would re-animate memory the
        collector already reasoned about, so the runtime rejects the
        attempt rather than violate soundness.
        """
        if g.is_system or g.reported:
            return False
        if g.status is _RUNNABLE:
            g.pending_value = None
            g.pending_exc = exc
            return True
        if g.status is _WAITING:
            self.semtable.remove_goroutine(g)
            self._relock.pop(g.goid, None)
            self.wake(g, exc=exc)
            return True
        return False

    def try_spurious_wakeup(self, g: Goroutine) -> bool:
        """Attempt a spurious wakeup of a parked goroutine.

        Only timer-parked goroutines (sleep / simulated IO) may legally
        resume early — waking less is an observationally valid timing
        perturbation.  For goroutines blocked at channel or ``sync``
        operations the runtime *refuses* (returns False): resuming them
        without their blocking condition would leave active sudogs or
        semaphore-table entries behind a runnable goroutine, exactly the
        corruption ``check_invariants`` exists to catch.
        """
        if g.status is not _WAITING or g.is_system:
            return False
        if g.is_blocked_detectably or g.wake_at is None:
            return False
        self.wake(g, result=None)
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def live_goroutines(self) -> List[Goroutine]:
        """All goroutines that are not dead (includes kept-deadlocked)."""
        return [g for g in self.allgs if g.status is not _DEAD]

    def user_goroutines(self) -> List[Goroutine]:
        return [g for g in self.live_goroutines() if not g.is_system]

    def blocked_goroutines(self) -> List[Goroutine]:
        return [g for g in self.allgs if g.status is _WAITING]

    def detectably_blocked(self) -> List[Goroutine]:
        return [g for g in self.allgs if g.is_blocked_detectably]

    def stack_inuse_bytes(self) -> int:
        return sum(g.stack_bytes for g in self.live_goroutines())

    def inflight_heap_refs(self) -> List[HeapObject]:
        """Heap objects referenced by instructions currently held by a
        virtual processor.

        An operand constructed inline at the yield site (``yield
        Send(ch, Box(...))``) lives only in the instruction object while
        the instruction's cost elapses — the generator frame has no
        local for it.  In Go these values sit on the goroutine's stack;
        here the scheduler must surface them as GC roots, or a
        collection landing mid-instruction (pacer, or a chaos-injected
        cycle) would sweep them.
        """
        refs: List[HeapObject] = []
        for p in self.procs:
            if p.instr is not None:
                refs.extend(p.instr.heap_refs())
        return refs

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------

    def run(self, until_ns: Optional[int] = None,
            max_instructions: Optional[int] = None) -> str:
        """Run until main exits, a deadline passes, or nothing can happen.

        Returns one of the :class:`RunStatus` values.  Panics escaping a
        goroutine crash the whole program and re-raise here, as Go's
        fatal panic does.

        The loop body is the runtime's hottest code.  Each event makes
        one pass over ``procs`` in pid order that fills idle processors
        from the run queue and takes the earliest completion, and stops
        once the queue is empty and ``_busy`` processors have been seen:
        an event costs what the busy processors cost, not ``GOMAXPROCS``.
        The run-queue pick is ``Random.randrange``'s own algorithm spelled
        in place — ``getrandbits(n.bit_length())``, redrawn while it is
        not below ``n`` — so it consumes the generator exactly as
        ``randrange(len(runq))`` does, one-goroutine queues included,
        without the two stdlib frames (docs/PERFORMANCE.md, section 2).
        """
        procs = self.procs
        runq = self.runq
        timers = self._timers
        tickers = self._tickers
        clock = self.clock
        # A scripted rng (verify.explore) records each pick as one
        # decision over its domain and has no bits to give: it alone is
        # asked for ``randrange(n)``.
        getrandbits = getattr(self.rng, "getrandbits", None)
        randrange = self.rng.randrange
        gc_step_hook = self.gc_step_hook
        while True:
            if self.crashed is not None:
                _, exc = self.crashed
                raise exc
            if self._main_exited:
                return RunStatus.MAIN_EXITED
            if (max_instructions is not None
                    and self.instructions_executed >= max_instructions):
                return RunStatus.INSTRUCTION_LIMIT

            now = clock.now
            if timers and timers[0][0] <= now:
                self._wake_due_timers()
            # After due sleepers are runnable, before anything is
            # dispatched: a tick sees the same goroutine states whatever
            # the RNG picks next.
            if tickers and tickers[0][0] <= now:
                self._fire_due_tickers()

            # The walk: fill, take the earliest mutator completion, and
            # remember the last busy processor.  Everything past the
            # break is idle with nothing to pull.
            t_user: Optional[int] = None
            last: Optional[_Proc] = None
            seen = 0
            for p in procs:
                # A dispatched goroutine may finish (or crash) instantly
                # without occupying the processor; keep pulling runnable
                # goroutines until the processor is genuinely busy, so an
                # idle processor always implies an empty run queue.
                while p.g is None and runq and self.crashed is None:
                    n = len(runq)
                    if getrandbits is not None:
                        # Drawn even when n == 1: dropping it would move
                        # every later draw of the run.
                        k = n.bit_length()
                        idx = getrandbits(k)
                        while idx >= n:
                            idx = getrandbits(k)
                    else:
                        idx = randrange(n)
                    if idx != n - 1:
                        runq[idx], runq[-1] = runq[-1], runq[idx]
                    self._start_instruction(p, runq.pop())
                if p.g is not None:
                    seen += 1
                    last = p
                    if t_user is None or p.busy_until < t_user:
                        t_user = p.busy_until
                if not runq and seen == self._busy:
                    break
            if self.crashed is not None or self._main_exited:
                continue  # re-run the terminal checks at the loop top

            if last is not None:
                # The next *user-relevant* event: a mutator instruction
                # completing or a user timer firing.  GC stepping is tied
                # to these only; a ticker coming due advances the clock
                # between them but never steps the collector, keeping the
                # incremental phase machine byte-identical ticker on/off.
                if timers and timers[0][0] < t_user:
                    t_user = timers[0][0]
                t_next = t_user
                if tickers and tickers[0][0] < t_next:
                    t_next = tickers[0][0]
            elif gc_step_hook is not None and gc_step_hook():
                # No mutator is running: drive any in-flight GC cycle at
                # the *current* clock before jumping time or declaring
                # deadlock — goroutines parked in runtime.GC (GC_WAIT)
                # become runnable when it completes.  This runs before
                # ticker times are considered, so incremental cycles
                # complete at the same virtual times with or without a
                # ticker installed.
                continue
            elif runq:
                continue  # dispatch again (woken by that GC cycle)
            elif timers or tickers:
                # Jump to the next timer — a pending ticker keeps the
                # loop alive exactly as a system goroutine's sleep does.
                if not timers:
                    t_next = tickers[0][0]
                else:
                    t_next = timers[0][0]
                    if tickers and tickers[0][0] < t_next:
                        t_next = tickers[0][0]
            else:
                waiting_user = [
                    g for g in self.allgs
                    if g.status is _WAITING and not g.is_system
                ]
                if waiting_user:
                    raise GlobalDeadlockError(
                        len(waiting_user),
                        dump=self.goroutine_dump(waiting_user))
                return RunStatus.IDLE

            if until_ns is not None and t_next > until_ns:
                clock.advance_to(until_ns)
                return RunStatus.TIMEOUT
            if t_next > clock.now:
                clock.now = t_next
            # Nothing inside a completion can make an idle processor
            # busy (dispatch happens in the walk only), so completions
            # end at the last busy processor too.
            if seen == 1:
                if last.busy_until <= clock.now:
                    self._complete(last)
            elif seen:
                # Busy/idle and the clock are re-read per processor: a
                # completion may stall others (fault-forced GC) or jitter
                # the clock, and both must be seen at visit time.
                for p in procs:
                    if p.g is not None and p.busy_until <= clock.now:
                        self._complete(p)
                    if p is last:
                        break
            if gc_step_hook is not None and t_next == t_user:
                # Incremental GC: one bounded mark/sweep budget per
                # scheduler tick, interleaved with mutator progress.
                gc_step_hook()

    def goroutine_dump(self, goroutines: List[Goroutine]) -> str:
        """Per-goroutine stack/waitreason dump, like the listing Go
        prints after a fatal error: the state is the wait reason
        whenever one is set.  Used by the global-deadlock error and
        ``pprof.format_stack_dump``."""
        lines = []
        for g in goroutines:
            if g.wait_reason is not None:
                state = g.wait_reason.value
            else:
                state = g.status.value
            lines.append(f"goroutine {g.trace_label} [{state}]:")
            for frame in g.stack_trace() or ["<no stack>"]:
                lines.append(f"\t{frame}")
            lines.append(f"created by {g.go_site}")
        return "\n".join(lines)

    def _wake_due_timers(self) -> None:
        timers = self._timers
        while timers and timers[0][0] <= self.clock.now:
            _, _, goid, g = heapq.heappop(timers)
            # The goroutine may have been reclaimed, re-parked, or its
            # descriptor reused for a fresh goroutine since.  Only wake
            # the same goroutine, and only if its current deadline has
            # actually passed (an early-woken sleeper that re-parked
            # leaves a stale entry whose deadline belongs to the past).
            if (g.goid == goid
                    and g.status is _WAITING
                    and g.wake_at is not None
                    and g.wake_at <= self.clock.now):
                self.wake(g, result=None)

    def _start_instruction(self, p: _Proc, g: Goroutine) -> None:
        if self.telemetry is not None:
            self.telemetry.on_context_switch()
        g.status = _RUNNING
        exc, g.pending_exc = g.pending_exc, None
        value, g.pending_value = g.pending_value, None
        try:
            if exc is not None:
                if isinstance(exc, GoPanic):
                    g.panicking = exc
                instr = g.gen.throw(exc)
            else:
                instr = g.gen.send(value)
            if not isinstance(instr, Instruction):
                raise InvalidInstruction(
                    f"goroutine {g.goid} yielded {instr!r}, "
                    "not an Instruction")
        except StopIteration as stop:
            # Reaching the end of the body counts as having handled any
            # in-flight panic (a Python-level catch is a recover).
            self.finish(g, getattr(stop, "value", None))
            return
        except GoPanic as panic:
            # The panic escaped the body: run defers and kill the
            # goroutine.  Goroutine-scoped panics (chaos injections)
            # stop there; ordinary panics crash the program, as in Go.
            self.finish(g)
            if getattr(panic, "goroutine_scoped", False):
                self.goroutine_panics.append((g.goid, panic.message))
                if self.tracer is not None:
                    self.tracer.on_panic(g, panic.message)
                return
            self.crashed = (g, panic)
            if self.tracer is not None:
                self.tracer.on_panic(g, panic.message)
            return
        except Exception as err:  # user bug inside the body
            self.finish(g)
            self.crashed = (g, err)
            if self.tracer is not None:
                self.tracer.on_panic(g, str(err))
            return
        p.g = g
        p.instr = instr
        self._busy += 1
        # Opcode compares instead of isinstance chains.  Subclasses
        # inherit the parent's OP, matching the historical isinstance
        # semantics exactly (same RNG draws).
        op = instr.OP
        if op == OP_WORK:
            cost = instr.units * 1_000  # units are microseconds
        elif op == OP_SLEEP or op == OP_RUN_GC:
            cost = self.base_cost_ns
        else:
            # uniform(0.75, 1.25), bit for bit: b - a is exactly 0.5.
            cost = int(self.base_cost_ns * (0.75 + 0.5 * self.rng.random()))
        self.cpu_busy_ns += cost
        p.busy_until = self.clock.now + cost
        if self.tracer is not None:
            self.tracer.on_instr(p.pid, g, instr.MNEMONIC, cost)

    def _complete(self, p: _Proc) -> None:
        g, instr = p.g, p.instr
        assert g is not None and instr is not None
        self.instructions_executed += 1
        injected = None
        if self.fault_hook is not None:
            # The proc still holds the instruction while the hook runs,
            # so a fault-forced GC sees its operands as in-flight roots.
            injected = self.fault_hook(g, instr)
            if p.g is not g:
                return  # that GC's rollback killed g: no effect to apply
        p.g = None
        p.instr = None
        self._busy -= 1
        if injected is not None:
            self.resume(g, exc=injected)
            return
        try:
            self._execute(self, g, instr)
        except GoPanic as panic:
            # Synchronous panics (close of closed channel, negative
            # WaitGroup...) unwind through the goroutine body so its
            # try/finally blocks (defer analogs) run.
            self.resume(g, exc=panic)

    def resume(self, g: Goroutine, result: Any = None,
               exc: Optional[BaseException] = None) -> None:
        """Re-enqueue a running goroutine with its instruction result."""
        g.pending_value = result
        g.pending_exc = exc
        g.status = _RUNNABLE
        self.runq.append(g)

    def stall_all(self, pause_ns: int) -> None:
        """Stop-the-world: push back every in-flight instruction."""
        for p in self.procs:
            if p.g is not None:
                p.busy_until += pause_ns
