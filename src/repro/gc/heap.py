"""The simulated heap: allocation, mark bits, sweeping, and globals.

The heap owns every live :class:`~repro.runtime.objects.HeapObject`,
assigns simulated addresses, tracks allocation statistics (the analog of
Go's ``runtime.MemStats``), and implements the sweep phase: unmarked
objects are reclaimed, and unmarked objects with finalizers are resurrected
for one cycle while their finalizer is queued, as in Go.

Mark state is an epoch counter rather than a bit: an object is marked in
the current cycle iff its ``_mark_epoch`` equals the heap's epoch, so
"unmark all objects" at the start of a cycle is O(1).
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple,
)

from repro.runtime.objects import HeapObject, iter_heap_refs, scan_each


class GlobalRoot(HeapObject):
    """The global-data root object (the paper's ``g0`` global view).

    Any value registered here is intrinsically reachable; programs use it
    to model package-level variables such as the global channel of the
    paper's Listing 4 (a known false-negative pattern for GOLF).
    """

    __slots__ = ("names",)
    kind = "globals"

    def __init__(self) -> None:
        HeapObject.__init__(self, 0)
        self.names: Dict[str, Any] = {}

    def set(self, name: str, value: Any) -> None:
        self._barrier(value)
        self.names[name] = value

    def get(self, name: str, default: Any = None) -> Any:
        return self.names.get(name, default)

    def remove(self, name: str) -> None:
        self.names.pop(name, None)

    def referents(self) -> List[HeapObject]:
        return scan_each(self.names.values(), [])

    def referents_excluding(self, names) -> List[HeapObject]:
        """Referents with some entries hidden — used by the detector
        when static liveness hints declare certain globals dead (the
        paper's future-work extension).  Collection itself never uses
        this view: hinted globals stay in memory."""
        return scan_each(
            [v for name, v in self.names.items() if name not in names], [])


class SweepResult:
    """Outcome of a sweep phase."""

    __slots__ = ("freed_objects", "freed_bytes", "finalizers_queued")

    def __init__(self, freed_objects: int, freed_bytes: int,
                 finalizers_queued: int):
        self.freed_objects = freed_objects
        self.freed_bytes = freed_bytes
        self.finalizers_queued = finalizers_queued

    def __repr__(self) -> str:
        return (
            f"SweepResult(freed_objects={self.freed_objects}, "
            f"freed_bytes={self.freed_bytes}, "
            f"finalizers_queued={self.finalizers_queued})"
        )


class Heap:
    """Container for all live simulated objects.

    Attributes:
        globals: the :class:`GlobalRoot`, always allocated and pinned.
        epoch: current mark epoch; bumped by :meth:`begin_cycle`.
    """

    def __init__(self) -> None:
        self._objects: Dict[int, HeapObject] = {}
        self._next_addr = 0x1000
        self._pinned: set = set()
        self.epoch = 0
        # Cumulative statistics.
        self.total_alloc_bytes = 0
        self.total_alloc_objects = 0
        self.total_freed_bytes = 0
        self.total_freed_objects = 0
        #: Dijkstra-style insertion write barrier (incremental
        #: collector): armed only during the concurrent MARKING phase by
        #: :meth:`enable_barrier`.  Every reference store in the runtime
        #: tests this flag and then routes through :meth:`write_barrier`,
        #: which shades the stored target gray so a black object can
        #: never point at a white one.
        self.barrier_active = False
        self._gray_sink: Optional[List[HeapObject]] = None
        self.barrier_shades = 0
        #: Optional chaos hook fired on every barrier shade
        #: (``hook(src, obj)``); one-shot jitter faults arm this.
        self.barrier_hook: Optional[Callable[[Any, HeapObject], None]] = None
        #: Optional trace hook fired when the barrier *newly* shades an
        #: object (``hook(src, obj)``); installed by ``enable_tracing``.
        self.trace_shade_hook: Optional[
            Callable[[Any, HeapObject], None]] = None
        # Registry of objects that age on every GC cycle (sync.Pool):
        # lets the collector age pools without an O(heap) scan.
        self._gc_aged: Dict[int, HeapObject] = {}
        self.globals = GlobalRoot()
        self.allocate(self.globals, pinned=True)

    # -- allocation -------------------------------------------------------

    def allocate(self, obj: HeapObject, pinned: bool = False) -> HeapObject:
        """Place ``obj`` on the heap, assigning it a fresh address.

        Pinned objects (goroutine descriptors, the global root) are never
        swept; the runtime manages their lifecycle explicitly.
        """
        if obj.addr != 0:
            raise ValueError(f"object already allocated: {obj!r}")
        obj.addr = addr = self._next_addr
        size = obj.size
        self._next_addr = addr + (size if size > 16 else 16)
        self._objects[addr] = obj
        obj._heap = self
        self.total_alloc_bytes += size
        self.total_alloc_objects += 1
        if pinned:
            self._pinned.add(addr)
        if type(obj).gc_ages_on_cycle:
            self._gc_aged[addr] = obj
        if self.barrier_active:
            # Allocate-black: objects born during marking survive the
            # cycle.  Push them gray as well, so references installed by
            # their constructors are traced even if the allocator never
            # reaches a barrier afterwards.
            if self.mark(obj) and self._gray_sink is not None:
                self._gray_sink.append(obj)
        return obj

    def pin(self, obj: HeapObject) -> None:
        """Exclude ``obj`` from sweeping."""
        self._pinned.add(obj.addr)

    def unpin(self, obj: HeapObject) -> None:
        self._pinned.discard(obj.addr)

    def free(self, obj: HeapObject) -> None:
        """Explicitly remove ``obj`` from the heap (runtime-internal)."""
        if self._objects.pop(obj.addr, None) is not None:
            self.total_freed_bytes += obj.size
            self.total_freed_objects += 1
            self._pinned.discard(obj.addr)
            self._gc_aged.pop(obj.addr, None)
            obj._heap = None

    # -- checkpoint snapshot/restore --------------------------------------

    def snapshot_objects(self, objs: Iterable[HeapObject]) -> Dict[int, Any]:
        """Record the restorable payload of ``objs`` for a checkpoint.

        Returns ``{addr: state}`` using each object's
        :meth:`~repro.runtime.objects.HeapObject.checkpoint_state`.  The
        caller (checkpoint/restart recovery) is responsible for keeping
        the objects alive across the checkpoint's lifetime — registered
        subsystem objects are pinned for exactly this reason.
        """
        return {obj.addr: obj.checkpoint_state() for obj in objs}

    def restore_objects(self, objs: Iterable[HeapObject],
                        snapshot: Dict[int, Any]) -> None:
        """Roll ``objs`` back to a snapshot taken by
        :meth:`snapshot_objects`.

        Objects without an entry (registered after the checkpoint) are
        left untouched.  Restores route stores through each object's
        write barrier, so a rollback landing while the incremental
        collector marks stays tricolor-sound.
        """
        for obj in objs:
            if obj.addr in snapshot:
                obj.restore_state(snapshot[obj.addr])

    # -- introspection ----------------------------------------------------

    def contains(self, obj: HeapObject) -> bool:
        """Whether ``obj`` is currently live on this heap."""
        return obj.addr != 0 and self._objects.get(obj.addr) is obj

    def objects(self) -> Iterator[HeapObject]:
        """Iterate over all live objects (sweep-order: address order)."""
        return iter(self._objects.values())

    def gc_aged_objects(self) -> Iterator[HeapObject]:
        """Objects registered as aging once per GC cycle (``sync.Pool``).

        Classes opt in with a ``gc_ages_on_cycle = True`` class
        attribute (``HeapObject`` declares it ``False``); the
        collector ages only this registry instead of scanning the whole
        heap every cycle.  Iteration follows allocation order, matching
        the old full-heap scan.
        """
        return iter(self._gc_aged.values())

    def __len__(self) -> int:
        return len(self._objects)

    @property
    def live_bytes(self) -> int:
        """Bytes held by live (not yet swept) objects: ``HeapAlloc``."""
        return self.total_alloc_bytes - self.total_freed_bytes

    @property
    def live_objects(self) -> int:
        """Number of live objects: ``HeapObjects``."""
        return self.total_alloc_objects - self.total_freed_objects

    # -- marking ----------------------------------------------------------

    def begin_cycle(self) -> None:
        """Start a new mark epoch, logically unmarking every object."""
        self.epoch += 1

    def mark(self, obj: HeapObject) -> bool:
        """Mark ``obj`` for the current epoch; return True if newly marked."""
        if obj._mark_epoch == self.epoch:
            return False
        obj._mark_epoch = self.epoch
        return True

    def is_marked(self, obj: HeapObject) -> bool:
        return obj._mark_epoch == self.epoch

    # -- write barrier (incremental collector) ----------------------------

    def enable_barrier(self, gray_sink: List[HeapObject]) -> None:
        """Arm the Dijkstra insertion barrier for the MARKING phase.

        ``gray_sink`` receives every object the barrier shades, so the
        concurrent marker also traces *through* them (a shaded container
        may itself hold unmarked references).
        """
        self.barrier_active = True
        self._gray_sink = gray_sink

    def disable_barrier(self) -> None:
        self.barrier_active = False
        self._gray_sink = None

    def write_barrier(self, src: Any, new_ref: Any) -> None:
        """Shade the target of a reference store (Dijkstra, insertion).

        Single choke point for every reference mutation in the runtime:
        channel buffers and sudog values, sync-object fields, map/slice/
        struct stores, and global-root sets.  While marking is in flight
        this preserves the tricolor invariant — no black object ever
        points to a white one — by marking the stored value (and pushing
        it gray).  Masked goroutine descriptors are *not* shaded: under
        GOLF, liveness must only propagate into a blocked goroutine via
        the detector's ``B(g)`` fixpoint, never via a stored pointer to
        its descriptor (see :mod:`repro.core.masking`).  Outside marking
        this is a no-op, so direct callers need not test
        :attr:`barrier_active` first.
        """
        if not self.barrier_active or new_ref is None:
            return
        if self.barrier_hook is not None:
            self.barrier_hook(src, new_ref)
        sink = self._gray_sink
        for obj in iter_heap_refs(new_ref):
            if obj.kind == "goroutine" and obj.masked:  # type: ignore[attr-defined]
                continue
            if self.mark(obj):
                self.barrier_shades += 1
                if self.trace_shade_hook is not None:
                    self.trace_shade_hook(src, obj)
                if sink is not None:
                    sink.append(obj)

    # -- sweeping ---------------------------------------------------------

    def sweep(self) -> Tuple[SweepResult, List[Callable[[], None]]]:
        """Reclaim unmarked, unpinned objects.

        Unmarked objects carrying a finalizer are resurrected instead of
        freed: their finalizer is detached and returned as a queued
        thunk, and the object survives until a later cycle finds it
        unreachable again — mirroring Go's finalizer resurrection.

        Returns the sweep statistics and the queued finalizer thunks; the
        collector decides when to run them.
        """
        freed_objects = 0
        freed_bytes = 0
        finalizers: List[Callable[[], None]] = []
        to_free: List[HeapObject] = []
        epoch = self.epoch
        pinned = self._pinned
        for obj in self._objects.values():
            if obj._mark_epoch == epoch or obj.addr in pinned:
                continue
            if obj._finalizer is not None:
                fn = obj._finalizer
                obj._finalizer = None
                # Resurrect for this cycle; mark so a re-scan sees it live.
                obj._mark_epoch = epoch
                finalizers.append(_bind_finalizer(fn, obj))
                continue
            to_free.append(obj)
        for obj in to_free:
            del self._objects[obj.addr]
            self._gc_aged.pop(obj.addr, None)
            obj._heap = None
            freed_objects += 1
            freed_bytes += obj.size
        self.total_freed_objects += freed_objects
        self.total_freed_bytes += freed_bytes
        return SweepResult(freed_objects, freed_bytes, len(finalizers)), finalizers

    def is_pinned(self, obj: HeapObject) -> bool:
        return obj.addr in self._pinned

    def sweep_one(
        self, obj: HeapObject
    ) -> Tuple[bool, int, Optional[Callable[[], None]]]:
        """Sweep a single candidate (the incremental SWEEPING phase).

        Applies the same rules as :meth:`sweep` to one object: marked,
        pinned, or already-freed candidates are left alone; an unmarked
        object with a finalizer is resurrected (marked for this epoch,
        finalizer detached and returned as a thunk); anything else is
        freed.  Returns ``(freed, freed_bytes, finalizer_thunk)``.
        """
        if not self.contains(obj) or obj.addr in self._pinned:
            return False, 0, None
        if obj._mark_epoch == self.epoch:
            return False, 0, None
        if obj._finalizer is not None:
            fn = obj._finalizer
            obj._finalizer = None
            obj._mark_epoch = self.epoch
            return False, 0, _bind_finalizer(fn, obj)
        del self._objects[obj.addr]
        self._gc_aged.pop(obj.addr, None)
        obj._heap = None
        self.total_freed_objects += 1
        self.total_freed_bytes += obj.size
        return True, obj.size, None


def _bind_finalizer(
    fn: Callable[[HeapObject], None], obj: HeapObject
) -> Callable[[], None]:
    def thunk() -> None:
        fn(obj)

    return thunk
