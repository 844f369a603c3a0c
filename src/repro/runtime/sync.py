"""``sync`` package primitives: Mutex, RWMutex, WaitGroup, Cond, Once.

As in Go, every blocking ``sync`` primitive parks goroutines on an
internal semaphore registered in the global semaphore table
(:class:`~repro.runtime.sema.SemaTable`).  Each primitive exposes one or
more *sema keys* — distinct simulated addresses within the object, exactly
like the ``uint32`` sema fields inside Go's ``sync`` structs — and the
scheduler parks/wakes goroutines on those keys.

The classes here hold pure state (is the mutex held? what is the
WaitGroup counter?); all blocking, waking and hand-off decisions live in
the scheduler, which keeps these objects trivially unit-testable and
mirrors the Go split between ``sync`` and ``runtime/sema.go``.
"""

from __future__ import annotations

from typing import List

from repro.errors import NegativeWaitGroupCounter, UnlockOfUnlockedMutex
from repro.runtime.objects import WORD_SIZE, HeapObject, scan_each


class Mutex(HeapObject):
    """``sync.Mutex``: a mutual-exclusion lock.

    Go permits unlocking from a goroutine other than the locker, so no
    owner is tracked; unlocking an unheld mutex panics.
    """

    __slots__ = ("locked", "label")
    kind = "mutex"

    def __init__(self, label: str = ""):
        super().__init__(size=2 * WORD_SIZE)
        self.locked = False
        self.label = label

    def sema_key(self) -> int:
        """Table key of the internal semaphore (the struct's sema field)."""
        return self.addr + 8

    def try_lock(self) -> bool:
        if self.locked:
            return False
        self.locked = True
        return True

    def release(self) -> None:
        """Clear the held bit; panics if not held.

        The scheduler decides whether to hand the lock to a parked waiter
        (in which case it re-sets ``locked`` before waking them).
        """
        if not self.locked:
            raise UnlockOfUnlockedMutex()
        self.locked = False


class RWMutex(HeapObject):
    """``sync.RWMutex``: a reader/writer lock with writer preference.

    Once a writer is waiting, new readers block (Go's anti-starvation
    rule); readers already holding the lock drain before the writer
    enters.
    """

    __slots__ = ("readers", "writer", "writers_waiting", "label")
    kind = "rwmutex"

    def __init__(self, label: str = ""):
        super().__init__(size=4 * WORD_SIZE)
        self.readers = 0
        self.writer = False
        #: Count of parked writers; maintained by the scheduler.
        self.writers_waiting = 0
        self.label = label

    def reader_sema_key(self) -> int:
        return self.addr + 8

    def writer_sema_key(self) -> int:
        return self.addr + 16

    def try_rlock(self) -> bool:
        if self.writer or self.writers_waiting > 0:
            return False
        self.readers += 1
        return True

    def runlock(self) -> None:
        if self.readers <= 0:
            raise UnlockOfUnlockedMutex()
        self.readers -= 1

    def try_lock(self) -> bool:
        if self.writer or self.readers > 0:
            return False
        self.writer = True
        return True

    def unlock(self) -> None:
        if not self.writer:
            raise UnlockOfUnlockedMutex()
        self.writer = False


class WaitGroup(HeapObject):
    """``sync.WaitGroup``: a non-negative counter with waiters."""

    __slots__ = ("counter", "label")
    kind = "waitgroup"

    def __init__(self, label: str = ""):
        super().__init__(size=2 * WORD_SIZE)
        self.counter = 0
        self.label = label

    def sema_key(self) -> int:
        return self.addr + 8

    def add(self, delta: int) -> None:
        self.counter += delta
        if self.counter < 0:
            raise NegativeWaitGroupCounter()

    @property
    def ready(self) -> bool:
        """Whether ``Wait`` would return immediately."""
        return self.counter == 0


class Cond(HeapObject):
    """``sync.Cond``: a condition variable bound to a locker."""

    __slots__ = ("locker", "label")
    kind = "cond"

    def __init__(self, locker: Mutex, label: str = ""):
        super().__init__(size=3 * WORD_SIZE)
        self.locker = locker
        self.label = label

    def sema_key(self) -> int:
        return self.addr + 8

    def referents(self) -> List[HeapObject]:
        return [self.locker]


class Once(HeapObject):
    """``sync.Once``: one-shot execution latch."""

    __slots__ = ("done",)
    kind = "once"

    def __init__(self) -> None:
        super().__init__(size=WORD_SIZE)
        self.done = False


class Pool(HeapObject):
    """``sync.Pool``: a cache of reusable objects emptied by the GC.

    Go's pools are integrated with the collector: every cycle drops the
    pooled objects (via the victim-cache mechanism; modeled here as a
    two-cycle survival — an object put in the pool survives the next
    collection in the victim space and is dropped by the one after, like
    Go since 1.13).  The collector calls :meth:`on_gc` each cycle.

    ``get``/``put`` are plain methods (they never block, so they need no
    instruction); ``new`` is an optional factory for cache misses.
    """

    __slots__ = ("_items", "_victims", "new", "gets", "puts", "misses")
    kind = "pool"

    #: Registers the pool in the heap's per-cycle aging registry at
    #: allocation time, so the collector ages pools without scanning the
    #: whole heap (see :meth:`repro.gc.heap.Heap.gc_aged_objects`).
    gc_ages_on_cycle = True

    def __init__(self, new=None):
        super().__init__(size=4 * WORD_SIZE)
        self._items: list = []
        self._victims: list = []
        self.new = new
        self.gets = 0
        self.puts = 0
        self.misses = 0

    def put(self, item) -> None:
        self._barrier(item)
        self._items.append(item)
        self.puts += 1

    def get(self):
        self.gets += 1
        if self._items:
            return self._items.pop()
        if self._victims:
            return self._victims.pop()
        self.misses += 1
        return self.new() if self.new is not None else None

    def on_gc(self) -> None:
        """GC hook: primary cache becomes the victim cache; the previous
        victims are released to the collector."""
        self._victims = self._items
        self._items = []

    def __len__(self) -> int:
        return len(self._items) + len(self._victims)

    def referents(self) -> List[HeapObject]:
        out = scan_each(self._items, [])
        return scan_each(self._victims, out)
