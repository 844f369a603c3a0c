"""Instruction execution: the runtime's operation semantics.

Each function takes the scheduler, the executing goroutine, and the
instruction, and either *resumes* the goroutine with a result, *parks* it
with the appropriate wait reason and ``B(g)`` set, or raises a
:class:`~repro.errors.GoPanic` (which the scheduler throws back into the
goroutine body so ``try/finally`` — the ``defer`` analog — runs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.errors import CloseOfNilChannel, GoPanic, InvalidInstruction
from repro.runtime import events as ev
from repro.runtime import instructions as ins
from repro.runtime.channel import Channel
from repro.runtime.goroutine import EPSILON, Goroutine, Sudog
from repro.runtime.sema import Semaphore
from repro.runtime.sync import Cond, Mutex, Once, RWMutex, WaitGroup
from repro.runtime.waitreason import WaitReason

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.scheduler import Scheduler

# Park reasons, read once: an enum member read is a Python-level
# descriptor call on CPython 3.11 (see runtime/scheduler.py).
_NIL_CHAN_SEND = WaitReason.NIL_CHAN_SEND
_CHAN_SEND = WaitReason.CHAN_SEND
_NIL_CHAN_RECEIVE = WaitReason.NIL_CHAN_RECEIVE
_CHAN_RECEIVE = WaitReason.CHAN_RECEIVE
_SELECT_NO_CASES = WaitReason.SELECT_NO_CASES
_SELECT = WaitReason.SELECT
_SYNC_RWMUTEX_LOCK = WaitReason.SYNC_RWMUTEX_LOCK
_SYNC_MUTEX_LOCK = WaitReason.SYNC_MUTEX_LOCK
_SYNC_RWMUTEX_RLOCK = WaitReason.SYNC_RWMUTEX_RLOCK
_SYNC_WAITGROUP_WAIT = WaitReason.SYNC_WAITGROUP_WAIT
_SYNC_COND_WAIT = WaitReason.SYNC_COND_WAIT
_SEMACQUIRE = WaitReason.SEMACQUIRE
_IO_WAIT = WaitReason.IO_WAIT
_GC_WAIT = WaitReason.GC_WAIT


def execute(sched: "Scheduler", g: Goroutine, instr: ins.Instruction) -> None:
    """Apply the effect of ``instr`` on behalf of ``g``.

    Dispatch is a precompiled opcode table: ``instr.OP`` (a dense int
    interned on each instruction class at module load) indexes
    ``_DISPATCH`` directly, with an identity check against the expected
    class so subclasses and foreign instructions keep the historical
    exact-type semantics via :func:`execute_legacy`.
    """
    cls = instr.__class__
    op = cls.OP
    # OP is -1 for foreign/subclassed instructions; Python's negative
    # indexing then selects the last table entry, which the identity
    # check rejects, so no bounds test is needed on the hot path.
    if _OP_CLASS[op] is cls:
        _DISPATCH[op](sched, g, instr)
        return
    execute_legacy(sched, g, instr)


def execute_legacy(sched: "Scheduler", g: Goroutine,
                   instr: ins.Instruction) -> None:
    """The pre-flattening interpreter: exact-type dict dispatch.

    Kept as the reference semantics for the executor differential test —
    :func:`execute` must be observably indistinguishable from this.
    """
    handler = _HANDLERS.get(type(instr))
    if handler is None:
        raise InvalidInstruction(f"no handler for instruction {instr!r}")
    handler(sched, g, instr)


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------


def _exec_make_chan(sched, g, instr: ins.MakeChan) -> None:
    ch = Channel(instr.capacity, label=instr.label)
    sched.heap.allocate(ch)
    ch.make_site = g.block_site()
    if (sched.proof_registry is not None
            and sched.proof_registry.is_proven(ch.make_site, ch.capacity)):
        ch.proven_leak_free = True
    if sched._tracer is not None:
        sched._tracer.on_chan_op(ev.CHAN_MAKE, g, ch)
    # Resume first: the new object must be rooted (as the goroutine's
    # pending result) before the pacer hook may trigger a collection.
    sched.resume(g, ch)
    sched.alloc_hook()


def _exec_send(sched, g, instr: ins.Send) -> None:
    ch = instr.channel
    if ch is None:
        sched.park(g, _NIL_CHAN_SEND, (EPSILON,))
        return
    done, wakeups = ch.try_send(instr.value)  # may panic: send on closed
    if done:
        partner = wakeups[0].sudog.g.goid if wakeups else 0
        ch.note_transfer(g.goid, partner)
        if sched._tracer is not None:
            sched._tracer.on_chan_op(ev.CHAN_SEND, g, ch, partner=partner)
        sched.apply_wakeups(wakeups)
        sched.resume(g, None)
        return
    sd = Sudog(g, ch, instr.value, is_send=True)
    g.sudogs = [sd]
    ch.enqueue_sender(sd)
    sched.park(g, _CHAN_SEND, (ch,))


def _exec_recv(sched, g, instr: ins.Recv) -> None:
    ch = instr.channel
    if ch is None:
        sched.park(g, _NIL_CHAN_RECEIVE, (EPSILON,))
        return
    done, value, ok, wakeups = ch.try_recv()
    if done:
        partner = wakeups[0].sudog.g.goid if wakeups else 0
        if ok:
            ch.note_transfer(partner, g.goid)
        if sched._tracer is not None:
            sched._tracer.on_chan_op(ev.CHAN_RECV, g, ch, partner=partner)
        sched.apply_wakeups(wakeups)
        sched.resume(g, (value, ok))
        return
    sd = Sudog(g, ch, None, is_send=False)
    g.sudogs = [sd]
    ch.enqueue_receiver(sd)
    sched.park(g, _CHAN_RECEIVE, (ch,))


def _exec_close(sched, g, instr: ins.Close) -> None:
    ch = instr.channel
    if ch is None:
        raise CloseOfNilChannel()
    wakeups = ch.close()  # may panic: close of closed channel
    if sched._tracer is not None:
        sched._tracer.on_chan_op(ev.CHAN_CLOSE, g, ch,
                                extra={"woken": len(wakeups)})
    sched.apply_wakeups(wakeups)
    sched.resume(g, None)


def _exec_select(sched, g, instr: ins.Select) -> None:
    ready: List[int] = []
    for i, case in enumerate(instr.cases):
        ch = case.channel
        if ch is None:
            continue  # nil-channel cases never fire
        if isinstance(case, ins.SendCase):
            if ch.can_send():
                ready.append(i)
        elif ch.can_recv():
            ready.append(i)
    if ready:
        if sched.select_policy is not None:
            i = sched.select_policy(ready)
        else:
            i = sched.rng.choice(ready)
        case = instr.cases[i]
        ch = case.channel
        if isinstance(case, ins.SendCase):
            done, wakeups = ch.try_send(case.value)  # may panic if closed
            assert done, "ready send case must complete"
            partner = wakeups[0].sudog.g.goid if wakeups else 0
            ch.note_transfer(g.goid, partner)
            if sched._tracer is not None:
                sched._tracer.on_select(g, i, ch, "send", partner)
            sched.apply_wakeups(wakeups)
            sched.resume(g, (i, None, True))
        else:
            done, value, ok, wakeups = ch.try_recv()
            assert done, "ready recv case must complete"
            partner = wakeups[0].sudog.g.goid if wakeups else 0
            if ok:
                ch.note_transfer(partner, g.goid)
            if sched._tracer is not None:
                sched._tracer.on_select(g, i, ch, "recv", partner)
            sched.apply_wakeups(wakeups)
            sched.resume(g, (i, value, ok))
        return
    if instr.default:
        if sched._tracer is not None:
            sched._tracer.on_select(g, ins.DEFAULT_CASE, None, "default")
        sched.resume(g, (ins.DEFAULT_CASE, None, False))
        return
    real_channels = tuple(
        case.channel for case in instr.cases if case.channel is not None
    )
    if not real_channels:
        reason = _SELECT_NO_CASES if not instr.cases else _SELECT
        sched.park(g, reason, (EPSILON,))
        return
    sudogs = []
    for i, case in enumerate(instr.cases):
        ch = case.channel
        if ch is None:
            continue
        if isinstance(case, ins.SendCase):
            sd = Sudog(g, ch, case.value, is_send=True, select_index=i)
            ch.enqueue_sender(sd)
        else:
            sd = Sudog(g, ch, None, is_send=False, select_index=i)
            ch.enqueue_receiver(sd)
        sudogs.append(sd)
    g.sudogs = sudogs
    sched.park(g, _SELECT, real_channels)


# ---------------------------------------------------------------------------
# sync package
# ---------------------------------------------------------------------------


def _unlock_mutex(sched, m: Mutex) -> None:
    """Release ``m`` and hand it to the next parked waiter, if any."""
    m.release()  # may panic: unlock of unlocked mutex
    waiter = sched.semtable.dequeue(sched.mask_key(m.sema_key()))
    if waiter is not None:
        m.locked = True
        sched.wake(waiter, result=None)


def _exec_new_mutex(sched, g, instr: ins.NewMutex) -> None:
    m = Mutex(label=instr.label)
    sched.heap.allocate(m)
    sched.resume(g, m)
    sched.alloc_hook()


def _exec_new_rwmutex(sched, g, instr: ins.NewRWMutex) -> None:
    m = RWMutex(label=instr.label)
    sched.heap.allocate(m)
    sched.resume(g, m)
    sched.alloc_hook()


def _exec_new_waitgroup(sched, g, instr: ins.NewWaitGroup) -> None:
    wg = WaitGroup(label=instr.label)
    sched.heap.allocate(wg)
    sched.resume(g, wg)
    sched.alloc_hook()


def _exec_new_cond(sched, g, instr: ins.NewCond) -> None:
    if not isinstance(instr.locker, Mutex):
        raise InvalidInstruction("sync.Cond requires a Mutex locker")
    cond = Cond(instr.locker)
    sched.heap.allocate(cond)
    sched.resume(g, cond)
    sched.alloc_hook()


def _exec_new_once(sched, g, instr: ins.NewOnce) -> None:
    once = Once()
    sched.heap.allocate(once)
    sched.resume(g, once)
    sched.alloc_hook()


def _exec_new_sema(sched, g, instr: ins.NewSema) -> None:
    sema = Semaphore(instr.count)
    sched.heap.allocate(sema)
    sched.resume(g, sema)
    sched.alloc_hook()


def _exec_lock(sched, g, instr: ins.Lock) -> None:
    target = instr.target
    if isinstance(target, RWMutex):
        if target.try_lock():
            if sched._tracer is not None:
                sched._tracer.on_sema(ev.SEMA_ACQUIRE, g, target)
            sched.resume(g, None)
            return
        target.writers_waiting += 1
        sched.semtable.enqueue(sched.mask_key(target.writer_sema_key()), g)
        sched.park(g, _SYNC_RWMUTEX_LOCK, (target,),
                   blocking_sema=target)
        return
    if not isinstance(target, Mutex):
        raise InvalidInstruction(f"Lock target is not a mutex: {target!r}")
    if target.try_lock():
        if sched._tracer is not None:
            sched._tracer.on_sema(ev.SEMA_ACQUIRE, g, target)
        sched.resume(g, None)
        return
    sched.semtable.enqueue(sched.mask_key(target.sema_key()), g)
    sched.park(g, _SYNC_MUTEX_LOCK, (target,), blocking_sema=target)


def _exec_unlock(sched, g, instr: ins.Unlock) -> None:
    target = instr.target
    if isinstance(target, RWMutex):
        target.unlock()  # may panic
        _wake_rw_readers_or_writer(sched, target)
        if sched._tracer is not None:
            sched._tracer.on_sema(ev.SEMA_RELEASE, g, target)
        sched.resume(g, None)
        return
    if not isinstance(target, Mutex):
        raise InvalidInstruction(f"Unlock target is not a mutex: {target!r}")
    _unlock_mutex(sched, target)
    if sched._tracer is not None:
        sched._tracer.on_sema(ev.SEMA_RELEASE, g, target)
    sched.resume(g, None)


def _wake_rw_readers_or_writer(sched, rw: RWMutex) -> None:
    """On writer release: admit all parked readers, else one writer."""
    reader_key = sched.mask_key(rw.reader_sema_key())
    woke_reader = False
    while True:
        reader = sched.semtable.dequeue(reader_key)
        if reader is None:
            break
        rw.readers += 1
        sched.wake(reader, result=None)
        woke_reader = True
    if woke_reader:
        return
    if rw.writers_waiting > 0:
        writer = sched.semtable.dequeue(sched.mask_key(rw.writer_sema_key()))
        if writer is not None:
            rw.writer = True
            rw.writers_waiting -= 1
            sched.wake(writer, result=None)


def _exec_rlock(sched, g, instr: ins.RLock) -> None:
    rw = instr.target
    if not isinstance(rw, RWMutex):
        raise InvalidInstruction(f"RLock target is not a RWMutex: {rw!r}")
    if rw.try_rlock():
        if sched._tracer is not None:
            sched._tracer.on_sema(ev.SEMA_ACQUIRE, g, rw)
        sched.resume(g, None)
        return
    sched.semtable.enqueue(sched.mask_key(rw.reader_sema_key()), g)
    sched.park(g, _SYNC_RWMUTEX_RLOCK, (rw,), blocking_sema=rw)


def _exec_runlock(sched, g, instr: ins.RUnlock) -> None:
    rw = instr.target
    if not isinstance(rw, RWMutex):
        raise InvalidInstruction(f"RUnlock target is not a RWMutex: {rw!r}")
    rw.runlock()  # may panic
    if rw.readers == 0 and rw.writers_waiting > 0:
        writer = sched.semtable.dequeue(sched.mask_key(rw.writer_sema_key()))
        if writer is not None:
            rw.writer = True
            rw.writers_waiting -= 1
            sched.wake(writer, result=None)
    sched.resume(g, None)


def _exec_wg_add(sched, g, instr: ins.WgAdd) -> None:
    wg = instr.waitgroup
    wg.add(instr.delta)  # may panic: negative counter
    if wg.counter == 0:
        _wake_all(sched, sched.mask_key(wg.sema_key()))
    sched.resume(g, None)


def _exec_wg_done(sched, g, instr: ins.WgDone) -> None:
    wg = instr.target
    wg.add(-1)  # may panic
    if wg.counter == 0:
        _wake_all(sched, sched.mask_key(wg.sema_key()))
    sched.resume(g, None)


def _exec_wg_wait(sched, g, instr: ins.WgWait) -> None:
    wg = instr.target
    if wg.ready:
        sched.resume(g, None)
        return
    sched.semtable.enqueue(sched.mask_key(wg.sema_key()), g)
    sched.park(g, _SYNC_WAITGROUP_WAIT, (wg,), blocking_sema=wg)


def _wake_all(sched, key: int) -> None:
    while True:
        waiter = sched.semtable.dequeue(key)
        if waiter is None:
            return
        sched.wake(waiter, result=None)


def _exec_cond_wait(sched, g, instr: ins.CondWait) -> None:
    cond = instr.target
    if not isinstance(cond, Cond):
        raise InvalidInstruction(f"CondWait target is not a Cond: {cond!r}")
    _unlock_mutex(sched, cond.locker)  # may panic if locker unheld
    sched.semtable.enqueue(sched.mask_key(cond.sema_key()), g)
    sched._relock[g.goid] = cond.locker
    sched.park(g, _SYNC_COND_WAIT, (cond,), blocking_sema=cond)


def _exec_cond_signal(sched, g, instr: ins.CondSignal) -> None:
    cond = instr.target
    waiter = sched.semtable.dequeue(sched.mask_key(cond.sema_key()))
    if waiter is not None:
        locker = sched._relock.pop(waiter.goid, cond.locker)
        sched.wake_with_relock(waiter, locker)
    sched.resume(g, None)


def _exec_cond_broadcast(sched, g, instr: ins.CondBroadcast) -> None:
    cond = instr.target
    key = sched.mask_key(cond.sema_key())
    while True:
        waiter = sched.semtable.dequeue(key)
        if waiter is None:
            break
        locker = sched._relock.pop(waiter.goid, cond.locker)
        sched.wake_with_relock(waiter, locker)
    sched.resume(g, None)


def _exec_once_do(sched, g, instr: ins.OnceDo) -> None:
    once = instr.once
    if isinstance(once, Once) and not once.done:
        once.done = True
        instr.fn()
    sched.resume(g, None)


def _exec_sem_acquire(sched, g, instr: ins.SemAcquire) -> None:
    sema = instr.target
    if not isinstance(sema, Semaphore):
        raise InvalidInstruction(f"not a semaphore: {sema!r}")
    if sema.count > 0:
        sema.count -= 1
        if sched._tracer is not None:
            sched._tracer.on_sema(ev.SEMA_ACQUIRE, g, sema)
        sched.resume(g, None)
        return
    sched.semtable.enqueue(sched.mask_key(sema.addr), g)
    sched.park(g, _SEMACQUIRE, (sema,), blocking_sema=sema)


def _exec_sem_release(sched, g, instr: ins.SemRelease) -> None:
    sema = instr.target
    waiter = sched.semtable.dequeue(sched.mask_key(sema.addr))
    if waiter is not None:
        sched.wake(waiter, result=None)
    else:
        sema.count += 1
    if sched._tracer is not None:
        sched._tracer.on_sema(ev.SEMA_RELEASE, g, sema)
    sched.resume(g, None)


# ---------------------------------------------------------------------------
# Scheduling, time, memory
# ---------------------------------------------------------------------------


def _exec_go(sched, g, instr: ins.Go) -> None:
    site = g.block_site()
    child = sched.spawn(instr.fn, *instr.args, name=instr.name,
                        go_site=site, parent=g)
    if instr.name:
        child.deadlock_label = instr.name
    sched.resume(g, child)


def _exec_sleep(sched, g, instr: ins.Sleep) -> None:
    sched.park_on_timer(g, sched.clock.now + instr.ns)


def _exec_io_wait(sched, g, instr: ins.IoWait) -> None:
    sched.park_on_timer(g, sched.clock.now + instr.ns,
                        reason=_IO_WAIT)


def _exec_gosched(sched, g, instr: ins.Gosched) -> None:
    sched.resume(g, None)


def _exec_work(sched, g, instr: ins.Work) -> None:
    sched.resume(g, None)  # duration was modeled as processor busy time


def _exec_alloc(sched, g, instr: ins.Alloc) -> None:
    sched.heap.allocate(instr.obj)
    sched.resume(g, instr.obj)
    sched.alloc_hook()


def _exec_set_finalizer(sched, g, instr: ins.SetFinalizer) -> None:
    instr.obj.set_finalizer(instr.fn)
    sched.resume(g, None)


def _exec_run_gc(sched, g, instr: ins.RunGC) -> None:
    if sched.gc_request_hook is not None and sched.gc_request_hook(g):
        # Incremental collector: the caller parks until the cycle it
        # requested completes (Go's "wait for GC cycle"); the collector
        # wakes it from _complete_cycle.  B(g) is empty — a GC wait is
        # never a deadlock candidate.
        sched.park(g, _GC_WAIT, ())
        return
    sched.gc_hook("runtime.GC")
    sched.resume(g, None)


def _exec_now(sched, g, instr: ins.Now) -> None:
    sched.resume(g, sched.clock.now)


def _exec_set_global(sched, g, instr: ins.SetGlobal) -> None:
    sched.heap.globals.set(instr.name, instr.value)
    sched.resume(g, None)


def _exec_get_global(sched, g, instr: ins.GetGlobal) -> None:
    sched.resume(g, sched.heap.globals.get(instr.name))


def _exec_panic(sched, g, instr: ins.Panic) -> None:
    raise GoPanic(instr.message)


def _exec_recover(sched, g, instr: ins.Recover) -> None:
    panic = g.panicking
    g.panicking = None
    sched.resume(g, panic.message if panic is not None else None)


def _exec_defer(sched, g, instr: ins.Defer) -> None:
    g.defers.append(instr.fn)
    sched.resume(g, None)


_HANDLERS = {
    ins.MakeChan: _exec_make_chan,
    ins.Send: _exec_send,
    ins.Recv: _exec_recv,
    ins.Close: _exec_close,
    ins.Select: _exec_select,
    ins.NewMutex: _exec_new_mutex,
    ins.NewRWMutex: _exec_new_rwmutex,
    ins.NewWaitGroup: _exec_new_waitgroup,
    ins.NewCond: _exec_new_cond,
    ins.NewOnce: _exec_new_once,
    ins.NewSema: _exec_new_sema,
    ins.Lock: _exec_lock,
    ins.Unlock: _exec_unlock,
    ins.RLock: _exec_rlock,
    ins.RUnlock: _exec_runlock,
    ins.WgAdd: _exec_wg_add,
    ins.WgDone: _exec_wg_done,
    ins.WgWait: _exec_wg_wait,
    ins.CondWait: _exec_cond_wait,
    ins.CondSignal: _exec_cond_signal,
    ins.CondBroadcast: _exec_cond_broadcast,
    ins.OnceDo: _exec_once_do,
    ins.SemAcquire: _exec_sem_acquire,
    ins.SemRelease: _exec_sem_release,
    ins.Go: _exec_go,
    ins.Sleep: _exec_sleep,
    ins.IoWait: _exec_io_wait,
    ins.Gosched: _exec_gosched,
    ins.Work: _exec_work,
    ins.Alloc: _exec_alloc,
    ins.SetFinalizer: _exec_set_finalizer,
    ins.RunGC: _exec_run_gc,
    ins.Now: _exec_now,
    ins.SetGlobal: _exec_set_global,
    ins.GetGlobal: _exec_get_global,
    ins.Panic: _exec_panic,
    ins.Recover: _exec_recover,
    ins.Defer: _exec_defer,
}

# The flattened dispatch table, indexed by ``cls.OP``.  ``_OP_CLASS``
# mirrors it with the class each slot expects, making the hot-path check
# a single list index plus identity comparison.
_OP_CLASS: List[type] = list(ins.OPCODE_ORDER)
_DISPATCH = [_HANDLERS[cls] for cls in ins.OPCODE_ORDER]

assert len(_HANDLERS) == len(_DISPATCH), \
    "every handler must appear in the opcode table exactly once"
