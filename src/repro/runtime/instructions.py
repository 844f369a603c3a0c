"""The instruction set executed by simulated goroutines.

A goroutine body is a Python generator that *yields instructions* to the
scheduler, which executes them and resumes the generator with the result.
Each yield is a scheduling point, mirroring how Go's concurrency
operations are cooperative preemption points.

A body that needs to call a helper which itself performs concurrency
operations writes the helper as a generator and delegates with
``yield from`` — the scheduler transparently follows the delegation chain,
and the garbage collector scans the locals of every frame in the chain as
the goroutine's stack.

Example (the paper's Listing 7 leak)::

    def send_email(rt):
        done = yield MakeChan(0)
        def task():
            ...                      # asynchronous work
            yield Send(done, ())     # deferred send; leaks if unreceived
        yield Go(task)
        return done

    def handle_request(rt):
        yield from send_email(rt)    # channel never received from

Results (sent back into the generator):

=================== =====================================================
Instruction          Result
=================== =====================================================
``MakeChan``         the new :class:`~repro.runtime.channel.Channel`
``Send``             ``None``
``Recv``             ``(value, ok)`` tuple
``Select``           ``(case_index, value, ok)``; default case yields
                     ``(DEFAULT_CASE, None, False)``
``Go``               the spawned :class:`~repro.runtime.goroutine.Goroutine`
``Alloc``            the allocated object (same one passed in)
``Now``              current virtual time in nanoseconds
others               ``None``
=================== =====================================================
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Type

from repro.runtime.objects import (
    HeapObject, iter_heap_refs, scan_each, scan_into,
)

#: Case index reported by ``Select`` when the default case ran.
DEFAULT_CASE = -1


def _short(value: Any) -> str:
    """Compact operand rendering for instruction reprs."""
    if isinstance(value, HeapObject):
        addr = getattr(value, "addr", 0)
        return f"<{value.kind}@{addr:#x}>" if addr else f"<{value.kind}>"
    if callable(value) and hasattr(value, "__name__"):
        return value.__name__
    text = repr(value)
    return text if len(text) <= 32 else text[:29] + "..."


class Instruction:
    """Base class for everything a goroutine body may yield.

    Every concrete subclass carries a stable :attr:`MNEMONIC` — the
    canonical lowercase name tools speak (diagnostics, the static
    analyzer's lowering, trace renderers) instead of matching Python
    class names — and a uniform ``repr`` built from it.
    """

    __slots__ = ()

    #: Stable lowercase identifier; never derived from the class name.
    MNEMONIC = "instruction"

    #: Interned opcode: a dense int assigned per concrete class at module
    #: load (see :data:`OPCODE_ORDER`).  ``-1`` marks classes outside the
    #: built-in set — including user subclasses of concrete instructions,
    #: which inherit the parent's OP but fail the executor's exact-class
    #: check and fall back to the slow path, preserving the historical
    #: exact-type dispatch semantics.
    OP = -1

    def heap_refs(self) -> Tuple[HeapObject, ...]:
        """Heap objects referenced by this instruction's operands.

        These count as stack references of the yielding goroutine while
        the instruction is pending (e.g. the value being sent sits on the
        sender's stack), so value operands are scanned through
        containers like any stack local.
        """
        return ()

    def operands(self) -> Tuple[Tuple[str, Any], ...]:
        """``(slot, value)`` pairs across the class hierarchy, in
        declaration order."""
        pairs = []
        for cls in reversed(type(self).__mro__):
            for slot in cls.__dict__.get("__slots__", ()):
                pairs.append((slot, getattr(self, slot)))
        return tuple(pairs)

    def __repr__(self) -> str:
        fields = " ".join(f"{name}={_short(value)}"
                          for name, value in self.operands())
        return f"<{self.MNEMONIC} {fields}>" if fields else f"<{self.MNEMONIC}>"


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------


class MakeChan(Instruction):
    """Allocate a channel: ``make(chan T, capacity)``.

    ``capacity == 0`` creates an unbuffered channel.
    """

    __slots__ = ("capacity", "label")
    MNEMONIC = "make-chan"

    def __init__(self, capacity: int = 0, label: str = ""):
        if capacity < 0:
            raise ValueError("channel capacity must be non-negative")
        self.capacity = capacity
        self.label = label


class Send(Instruction):
    """``ch <- value``. Blocks per channel semantics. ``ch=None`` is a nil
    channel send, which blocks forever."""

    __slots__ = ("channel", "value")
    MNEMONIC = "send"

    def __init__(self, channel: Optional[HeapObject], value: Any = None):
        self.channel = channel
        self.value = value

    def heap_refs(self) -> Tuple[HeapObject, ...]:
        refs = [] if self.channel is None else [self.channel]
        scan_into(self.value, refs)
        return tuple(refs)


class Recv(Instruction):
    """``<-ch``; resolves to ``(value, ok)``. ``ch=None`` blocks forever."""

    __slots__ = ("channel",)
    MNEMONIC = "recv"

    def __init__(self, channel: Optional[HeapObject]):
        self.channel = channel

    def heap_refs(self) -> Tuple[HeapObject, ...]:
        return (self.channel,) if self.channel is not None else ()


class Close(Instruction):
    """``close(ch)``. Panics on nil or already-closed channels."""

    __slots__ = ("channel",)
    MNEMONIC = "close"

    def __init__(self, channel: Optional[HeapObject]):
        self.channel = channel

    def heap_refs(self) -> Tuple[HeapObject, ...]:
        return (self.channel,) if self.channel is not None else ()


class SendCase:
    """A ``case ch <- value`` arm of a select statement."""

    __slots__ = ("channel", "value")
    MNEMONIC = "send-case"

    def __init__(self, channel: Optional[HeapObject], value: Any = None):
        self.channel = channel
        self.value = value


class RecvCase:
    """A ``case x := <-ch`` arm of a select statement."""

    __slots__ = ("channel",)
    MNEMONIC = "recv-case"

    def __init__(self, channel: Optional[HeapObject]):
        self.channel = channel


class Select(Instruction):
    """A ``select`` statement over the given cases.

    With ``default=True`` the select never blocks; if no case is ready the
    result is ``(DEFAULT_CASE, None, False)``.  A select with zero cases
    and no default blocks forever (wait reason ``SELECT_NO_CASES``).
    """

    __slots__ = ("cases", "default")
    MNEMONIC = "select"

    def __init__(self, cases: Sequence[Any], default: bool = False):
        self.cases = tuple(cases)
        self.default = default
        for case in self.cases:
            if not isinstance(case, (SendCase, RecvCase)):
                raise TypeError(f"not a select case: {case!r}")

    def heap_refs(self) -> Tuple[HeapObject, ...]:
        refs = []
        for case in self.cases:
            if case.channel is not None:
                refs.append(case.channel)
            if isinstance(case, SendCase):
                scan_into(case.value, refs)
        return tuple(refs)


# ---------------------------------------------------------------------------
# sync package
# ---------------------------------------------------------------------------


class NewMutex(Instruction):
    """Allocate a ``sync.Mutex``."""

    __slots__ = ("label",)
    MNEMONIC = "new-mutex"

    def __init__(self, label: str = ""):
        self.label = label


class NewRWMutex(Instruction):
    """Allocate a ``sync.RWMutex``."""

    __slots__ = ("label",)
    MNEMONIC = "new-rwmutex"

    def __init__(self, label: str = ""):
        self.label = label


class NewWaitGroup(Instruction):
    """Allocate a ``sync.WaitGroup``."""

    __slots__ = ("label",)
    MNEMONIC = "new-waitgroup"

    def __init__(self, label: str = ""):
        self.label = label


class NewCond(Instruction):
    """Allocate a ``sync.Cond`` bound to ``locker`` (a Mutex)."""

    __slots__ = ("locker",)
    MNEMONIC = "new-cond"

    def __init__(self, locker: HeapObject):
        self.locker = locker

    def heap_refs(self) -> Tuple[HeapObject, ...]:
        return (self.locker,)


class NewOnce(Instruction):
    """Allocate a ``sync.Once``."""

    __slots__ = ()
    MNEMONIC = "new-once"


class _OneOperand(Instruction):
    __slots__ = ("target",)
    MNEMONIC = "one-operand"  # abstract; concrete subclasses override

    def __init__(self, target: HeapObject):
        self.target = target

    def heap_refs(self) -> Tuple[HeapObject, ...]:
        return (self.target,)


class Lock(_OneOperand):
    """``m.Lock()`` — blocks while the mutex is held."""
    __slots__ = ()
    MNEMONIC = "lock"


class Unlock(_OneOperand):
    """``m.Unlock()`` — panics if the mutex is not held."""
    __slots__ = ()
    MNEMONIC = "unlock"


class RLock(_OneOperand):
    """``m.RLock()`` on a RWMutex."""
    __slots__ = ()
    MNEMONIC = "rlock"


class RUnlock(_OneOperand):
    """``m.RUnlock()`` on a RWMutex."""
    __slots__ = ()
    MNEMONIC = "runlock"


class WgAdd(Instruction):
    """``wg.Add(delta)``; panics if the counter goes negative."""

    __slots__ = ("waitgroup", "delta")
    MNEMONIC = "wg-add"

    def __init__(self, waitgroup: HeapObject, delta: int = 1):
        self.waitgroup = waitgroup
        self.delta = delta

    def heap_refs(self) -> Tuple[HeapObject, ...]:
        return (self.waitgroup,)


class WgDone(_OneOperand):
    """``wg.Done()``."""
    __slots__ = ()
    MNEMONIC = "wg-done"


class WgWait(_OneOperand):
    """``wg.Wait()`` — blocks until the counter reaches zero."""
    __slots__ = ()
    MNEMONIC = "wg-wait"


class CondWait(_OneOperand):
    """``c.Wait()`` — atomically releases the locker and blocks; on wake,
    reacquires the locker before resuming."""
    __slots__ = ()
    MNEMONIC = "cond-wait"


class CondSignal(_OneOperand):
    """``c.Signal()`` — wakes one waiter if any."""
    __slots__ = ()
    MNEMONIC = "cond-signal"


class CondBroadcast(_OneOperand):
    """``c.Broadcast()`` — wakes all waiters."""
    __slots__ = ()
    MNEMONIC = "cond-broadcast"


class OnceDo(Instruction):
    """``once.Do(fn)`` with a plain (non-blocking) Python callable."""

    __slots__ = ("once", "fn")
    MNEMONIC = "once-do"

    def __init__(self, once: HeapObject, fn: Callable[[], None]):
        self.once = once
        self.fn = fn

    def heap_refs(self) -> Tuple[HeapObject, ...]:
        return (self.once,)


class SemAcquire(_OneOperand):
    """Low-level semaphore acquire (blocks while the count is zero)."""
    __slots__ = ()
    MNEMONIC = "sem-acquire"


class SemRelease(_OneOperand):
    """Low-level semaphore release (wakes one waiter, if any)."""
    __slots__ = ()
    MNEMONIC = "sem-release"


class NewSema(Instruction):
    """Allocate a low-level semaphore with the given initial count."""

    __slots__ = ("count",)
    MNEMONIC = "new-sema"

    def __init__(self, count: int = 0):
        self.count = count


# ---------------------------------------------------------------------------
# Scheduling, time, memory
# ---------------------------------------------------------------------------


class Go(Instruction):
    """Spawn a goroutine: ``go fn(*args)``.

    ``fn`` must be a generator function taking ``*args``; the spawn site
    (file:line of the yield) is recorded on the new goroutine for
    deduplicated deadlock reports.  ``name`` overrides the display name.
    """

    __slots__ = ("fn", "args", "name")
    MNEMONIC = "go"

    def __init__(self, fn: Callable[..., Any], *args: Any, name: str = ""):
        self.fn = fn
        self.args = args
        self.name = name

    def heap_refs(self) -> Tuple[HeapObject, ...]:
        return tuple(scan_each(self.args, []))


class Sleep(Instruction):
    """``time.Sleep(ns)`` in virtual nanoseconds (wait reason SLEEP,
    which GOLF treats as always live)."""

    __slots__ = ("ns",)
    MNEMONIC = "sleep"

    def __init__(self, ns: int):
        if ns < 0:
            raise ValueError("sleep duration must be non-negative")
        self.ns = ns


class IoWait(Instruction):
    """A blocking system call (network/disk IO) of ``ns`` virtual
    nanoseconds.

    Parks with wait reason ``IO_WAIT``: goroutines blocked at system
    calls are deemed runnable for liveness (paper §4.1) and are never
    deadlock candidates, but goleak's full output does flag them — the
    category the paper excludes from its comparison.
    """

    __slots__ = ("ns",)
    MNEMONIC = "io-wait"

    def __init__(self, ns: int):
        if ns < 0:
            raise ValueError("IO duration must be non-negative")
        self.ns = ns


class Gosched(Instruction):
    """``runtime.Gosched()`` — yield the processor, stay runnable."""

    __slots__ = ()
    MNEMONIC = "gosched"


class Work(Instruction):
    """Non-preemptible CPU work of ``units`` simulated microseconds.

    The executing goroutine holds its virtual processor for the whole
    duration, so under ``GOMAXPROCS=1`` other goroutines cannot interleave
    — this is how core-count-sensitive races are expressed.
    """

    __slots__ = ("units",)
    MNEMONIC = "work"

    def __init__(self, units: int = 1):
        if units <= 0:
            raise ValueError("work units must be positive")
        self.units = units


class Alloc(Instruction):
    """Allocate a user heap object (Box, Struct, Slice, GoMap, Blob...)."""

    __slots__ = ("obj",)
    MNEMONIC = "alloc"

    def __init__(self, obj: HeapObject):
        self.obj = obj

    def heap_refs(self) -> Tuple[HeapObject, ...]:
        return (self.obj,)


class SetFinalizer(Instruction):
    """``runtime.SetFinalizer(obj, fn)``."""

    __slots__ = ("obj", "fn")
    MNEMONIC = "set-finalizer"

    def __init__(self, obj: HeapObject, fn: Callable[[HeapObject], None]):
        self.obj = obj
        self.fn = fn

    def heap_refs(self) -> Tuple[HeapObject, ...]:
        return (self.obj,)


class RunGC(Instruction):
    """``runtime.GC()`` — force a full collection cycle now."""

    __slots__ = ()
    MNEMONIC = "run-gc"


class Now(Instruction):
    """Read the virtual clock (nanoseconds)."""

    __slots__ = ()
    MNEMONIC = "now"


class SetGlobal(Instruction):
    """Register a value in global data (package-level variable)."""

    __slots__ = ("name", "value")
    MNEMONIC = "set-global"

    def __init__(self, name: str, value: Any):
        self.name = name
        self.value = value

    def heap_refs(self) -> Tuple[HeapObject, ...]:
        return tuple(iter_heap_refs(self.value))


class GetGlobal(Instruction):
    """Read a value from global data."""

    __slots__ = ("name",)
    MNEMONIC = "get-global"

    def __init__(self, name: str):
        self.name = name


class Panic(Instruction):
    """``panic(message)`` — unwinds the goroutine and (unrecovered)
    crashes the simulated program.

    The panic is thrown into the goroutine body, so ``try/finally``
    blocks (the ``defer`` analog) run during the unwind; a body that
    catches :class:`~repro.errors.GoPanic` and yields :class:`Recover`
    stops the unwind and keeps running, as Go's deferred ``recover()``
    does.
    """

    __slots__ = ("message",)
    MNEMONIC = "panic"

    def __init__(self, message: str):
        self.message = message


class Recover(Instruction):
    """``recover()`` — consume the in-flight panic and stop unwinding.

    Resolves to the panic message while the goroutine is panicking (and
    clears the panicking state, so the panic is considered handled), or
    ``None`` otherwise — mirroring Go, where ``recover`` returns ``nil``
    unless called during a panic.  Bodies use it from an
    ``except GoPanic`` (deferred-function analog) block::

        try:
            yield Send(ch, value)    # may panic: send on closed channel
        except GoPanic:
            reason = yield Recover()
    """

    __slots__ = ()
    MNEMONIC = "recover"


class Defer(Instruction):
    """Register ``fn`` (a plain, non-blocking callable) to run when the
    goroutine terminates — normal exit, unrecovered panic, or program
    crash — in LIFO order, like stacked ``defer`` statements.

    Deferred callables do **not** run when GOLF forcibly reclaims a
    deadlocked goroutine: the runtime guarantees deferred code of a
    reclaimed goroutine never executes (paper §5.5).  Blocking deferred
    work is instead expressed with ``try/finally`` around yields.
    """

    __slots__ = ("fn",)
    MNEMONIC = "defer"

    def __init__(self, fn: Callable[[], None]):
        if not callable(fn):
            raise TypeError(f"Defer needs a callable, got {fn!r}")
        self.fn = fn


# ---------------------------------------------------------------------------
# Introspection for tools (static analyzer, trace renderers)
# ---------------------------------------------------------------------------


def instruction_classes() -> Dict[str, Type[Instruction]]:
    """Concrete instruction classes by Python class name.

    Tools that meet instructions as *names* (the static analyzer walks
    source ASTs where a yield's callee is just an identifier) use this to
    translate into stable mnemonics instead of string-matching class
    names.
    """
    out: Dict[str, Type[Instruction]] = {}
    for name, obj in globals().items():
        if (isinstance(obj, type) and issubclass(obj, Instruction)
                and obj is not Instruction and not name.startswith("_")):
            out[name] = obj
    out["SendCase"] = SendCase  # select arms travel with the instruction set
    out["RecvCase"] = RecvCase
    return out


# ---------------------------------------------------------------------------
# Interned opcodes
# ---------------------------------------------------------------------------

#: Every concrete instruction class in opcode order.  The executor's
#: dispatch table and the scheduler's cost model index by ``cls.OP``
#: (list index + identity check) instead of hashing types or walking
#: isinstance chains on every yield.  Append-only: opcode values are
#: positional, so inserting in the middle would silently renumber.
OPCODE_ORDER: Tuple[Type[Instruction], ...] = (
    MakeChan, Send, Recv, Close, Select,
    NewMutex, NewRWMutex, NewWaitGroup, NewCond, NewOnce, NewSema,
    Lock, Unlock, RLock, RUnlock,
    WgAdd, WgDone, WgWait,
    CondWait, CondSignal, CondBroadcast,
    OnceDo, SemAcquire, SemRelease,
    Go, Sleep, IoWait, Gosched, Work,
    Alloc, SetFinalizer, RunGC, Now,
    SetGlobal, GetGlobal, Panic, Recover, Defer,
)

for _op, _cls in enumerate(OPCODE_ORDER):
    _cls.OP = _op
del _op, _cls

OP_COUNT = len(OPCODE_ORDER)

#: Opcodes the scheduler's cost model special-cases (no RNG jitter).
OP_WORK = Work.OP
OP_SLEEP = Sleep.OP
OP_RUN_GC = RunGC.OP
