"""Heap object model: the memory graph of the simulated runtime.

The paper (section 4) models program memory as a set of objects ``M`` with
a reference relation ``REF(a, b)``.  This module provides the concrete
object model: every garbage-collected entity of the simulated runtime —
channels, sync primitives, goroutines, and user data — derives from
:class:`HeapObject` and reports its outgoing references via
:meth:`HeapObject.referents`.

User programs build data out of the concrete value types here (:class:`Box`,
:class:`Struct`, :class:`Slice`, :class:`GoMap`, :class:`Blob`), which is
what allows the collector to trace the object graph and the GOLF detector
to decide whether the concurrency objects a goroutine is blocked on are
reachable.

Plain Python values (ints, strings, ...) may be stored anywhere a reference
may be stored; they occupy no simulated heap space and are invisible to the
collector.  Python container values (lists, tuples, dicts, sets) are
scanned *through* conservatively, so a plain list of channels held in a
goroutine local keeps those channels reachable, just as a Go slice on the
stack would.  The same holds for the operands of an instruction in
flight (``Send``/``Select`` values, ``Go`` arguments, ``SetGlobal``).

One eager kernel, :func:`scan_into`, does all such scanning, and every
``referents()`` returns the finished list of what it found — in slot
order, one entry per edge, duplicates kept — because the marking engine
charges one work unit per entry.  A mark pass may scan a shared container
once (:func:`open_pass`), yet that still holds: a repeat visit appends the
same references, in the same order, that its first scan appended, so each
``referents()`` list is exactly what a rescan would have built.
"""

from __future__ import annotations

from types import WrapperDescriptorType
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple,
)
from weakref import ProxyTypes

#: Simulated pointer size in bytes; used by the default size model.
WORD_SIZE = 8

#: Maximum depth when scanning through plain Python containers for heap
#: references.  Deeper nesting is almost certainly a bug in user code; the
#: limit keeps conservative scanning linear in practice.
_MAX_SCAN_DEPTH = 16

#: Exact types the scanner rejects without an ``isinstance`` chain: they
#: are neither heap objects nor containers.  Membership is by ``type(v)``,
#: so a subclass (which may carry fields or override iteration) is not
#: covered and is scanned the general way.
_SCALARS = frozenset({int, float, str, bytes, bool, type(None), complex})

#: The sequence/set types scanned through; for exactly these (not a
#: subclass) the all-scalars test may stand in for iteration.
_PLAIN = (list, tuple, set, frozenset)

#: What the scanner does with a value, by kind.  The order matters: a
#: kind below ``_HEAP`` holds no reference, one above it is a container
#: or not yet classified, so a slot loop tests one comparison.
(_SCALAR, _OPAQUE, _HEAP, _PLAIN_EXACT, _PLAIN_SUB, _DICT_EXACT, _DICT_SUB,
 _UNSEEN) = range(8)

#: Entries past which :data:`_KINDS` stops growing; an unseen type is
#: then classified on every call instead.
_KINDS_MAX = 256

#: Exact type -> kind.  Only a type whose instances all answer
#: ``isinstance`` by their type alone is cached (see :func:`_classify`).
_KINDS: Dict[type, int] = {
    **dict.fromkeys(_SCALARS, _SCALAR),
    **dict.fromkeys(_PLAIN, _PLAIN_EXACT),
    dict: _DICT_EXACT,
}

#: Elements below which an exact container is rescanned on every visit
#: of a pass rather than memoised, keeping the memo to containers whose
#: replay saves tens of element checks (docs/PERFORMANCE.md §3a counts
#: what each limit keeps per workload).
_MEMO_MIN_LEN = 16

#: A mark pass's container memo: ``id(container) -> (container, depth,
#: refs found)``.  Holding the container keeps its ``id`` from being
#: reused while the entry lives.
PassMemo = Dict[int, Tuple[Any, int, List["HeapObject"]]]

#: The open pass's memo; ``None`` outside a pass.
_pass_memo: Optional[PassMemo] = None


class HeapObject:
    """Base class for every simulated heap-allocated object.

    Instances are *not* live on the simulated heap until they are
    allocated via :meth:`repro.gc.heap.Heap.allocate` (the runtime facade
    does this automatically for objects created through its API).

    Attributes:
        addr: simulated address, assigned by the heap at allocation time
            (``0`` until allocated).  Addresses are unique per heap and
            never reused.
        size: simulated size in bytes, used for memory accounting
            (``HeapAlloc`` and friends in the paper's Table 2).
    """

    __slots__ = ("addr", "size", "_mark_epoch", "_finalizer", "_heap")

    #: Short human-readable tag used in reports and ``repr``.
    kind: str = "object"

    #: Extra marking work (in traversal units) charged when the collector
    #: scans this object, modeling the cost of walking large pointer-ful
    #: objects (Go scans map buckets; ``[]byte`` blobs are noscan).
    scan_work: int = 0

    def __init__(self, size: int = WORD_SIZE):
        self.addr: int = 0
        self.size: int = size
        self._mark_epoch: int = -1
        self._finalizer: Optional[Callable[["HeapObject"], None]] = None
        #: Back-reference to the owning heap, set at allocation time, so
        #: post-allocation growth flows into the memory accounting.
        self._heap: Optional[Any] = None

    def resize(self, new_size: int) -> None:
        """Change the simulated size, keeping heap accounting consistent.

        Growing a slice or inserting into a map changes how much memory
        the object stands for; in Go those are allocation events (a new
        backing array, new buckets).  Crediting the delta against the
        owning heap's counters keeps ``HeapAlloc`` equal to the sum of
        live object sizes — an invariant ``check_invariants`` enforces.
        """
        if new_size < 0:
            raise ValueError("object size must be non-negative")
        delta = new_size - self.size
        self.size = new_size
        heap = self._heap
        if heap is not None and delta:
            if delta > 0:
                heap.total_alloc_bytes += delta
            else:
                heap.total_freed_bytes += -delta

    # -- reference graph -------------------------------------------------

    def _barrier(self, value: Any) -> None:
        """Route a reference store through the heap's write barrier.

        Called by every mutating accessor before the store lands.  A
        no-op until the object is allocated and the incremental
        collector's MARKING phase is active (see
        :meth:`repro.gc.heap.Heap.write_barrier`).
        """
        heap = self._heap
        if heap is not None:
            heap.write_barrier(self, value)

    def referents(self) -> Iterable["HeapObject"]:
        """The heap objects this object directly references.

        Subclasses override this and return a list built eagerly (the
        collector runs no mutator between the call and the last
        element); the default object has no outgoing references.  The
        collector treats the transitive closure of this relation as
        ``REF`` from the paper.
        """
        return ()

    # -- checkpoint/restart support ---------------------------------------

    def checkpoint_state(self) -> Any:
        """Snapshot this object's restorable payload.

        Checkpoint/restart recovery (:mod:`repro.core.checkpoint`) calls
        this at quiescent points and feeds the result back through
        :meth:`restore_state` on rollback.  The default object carries no
        payload; channels — the only objects a subsystem registers —
        override both methods.
        References inside the payload are recorded as-is: the snapshot
        restores the *shape* of the subsystem state, and everything it
        points at stays alive because the checkpointed objects are
        pinned and reachable.
        """
        return None

    def restore_state(self, state: Any) -> None:
        """Restore payload captured by :meth:`checkpoint_state`."""

    # -- finalizers -------------------------------------------------------

    def set_finalizer(self, fn: Callable[["HeapObject"], None]) -> None:
        """Attach a finalizer, as ``runtime.SetFinalizer`` does in Go.

        The finalizer runs (once) when the collector reclaims the object.
        GOLF refuses to reclaim deadlocked goroutines whose exclusively
        reachable subgraph contains finalizers, to preserve Go semantics
        (paper, section 5.5).
        """
        self._finalizer = fn

    @property
    def finalizer(self) -> Optional[Callable[["HeapObject"], None]]:
        return self._finalizer

    def __repr__(self) -> str:
        return f"<{self.kind} @0x{self.addr:x} size={self.size}>"


class Box(HeapObject):
    """A single mutable reference cell (a pointer-sized heap allocation)."""

    __slots__ = ("_value",)
    kind = "box"

    def __init__(self, value: Any = None):
        super().__init__(size=2 * WORD_SIZE)
        self._value = value

    @property
    def value(self) -> Any:
        return self._value

    @value.setter
    def value(self, new_value: Any) -> None:
        self._barrier(new_value)
        self._value = new_value

    def referents(self) -> List[HeapObject]:
        return iter_heap_refs(self._value)


class Struct(HeapObject):
    """A heap object with named fields, analogous to a Go struct pointer.

    Fields are set at construction or via :meth:`set`; reading uses
    :meth:`get` or index syntax.  Fields may hold heap objects, plain
    Python values, or containers of either.
    """

    __slots__ = ("fields",)
    kind = "struct"

    def __init__(self, **fields: Any):
        super().__init__(size=2 * WORD_SIZE + WORD_SIZE * max(1, len(fields)))
        self.fields: Dict[str, Any] = dict(fields)

    def get(self, name: str) -> Any:
        return self.fields[name]

    def set(self, name: str, value: Any) -> None:
        self._barrier(value)
        self.fields[name] = value

    def __getitem__(self, name: str) -> Any:
        return self.fields[name]

    def __setitem__(self, name: str, value: Any) -> None:
        self._barrier(value)
        self.fields[name] = value

    def referents(self) -> List[HeapObject]:
        return scan_each(self.fields.values(), [])


class Slice(HeapObject):
    """A growable sequence of references, analogous to a Go slice."""

    __slots__ = ("items",)
    kind = "slice"

    def __init__(self, items: Optional[Iterable[Any]] = None):
        self.items: List[Any] = list(items) if items is not None else []
        super().__init__(size=3 * WORD_SIZE + WORD_SIZE * len(self.items))

    def append(self, value: Any) -> None:
        self._barrier(value)
        self.items.append(value)
        self.resize(self.size + WORD_SIZE)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> Any:
        return self.items[index]

    def __setitem__(self, index: int, value: Any) -> None:
        self._barrier(value)
        self.items[index] = value

    def __iter__(self) -> Iterator[Any]:
        return iter(self.items)

    def referents(self) -> List[HeapObject]:
        return scan_each(self.items, [])


class GoMap(HeapObject):
    """A key-value mapping, analogous to a Go map.

    Sized per entry so that large maps (the paper's controlled service
    allocates two 100K-entry maps per request) exert realistic pressure on
    the simulated heap.
    """

    __slots__ = ("entries", "scan_work")
    kind = "map"

    #: Simulated bytes per map entry (key word + value word + bucket
    #: overhead), chosen so a 100K-entry map is a few MB, as in Go.
    BYTES_PER_ENTRY = 3 * WORD_SIZE

    def __init__(self, entries: Optional[Dict[Any, Any]] = None):
        self.entries: Dict[Any, Any] = dict(entries) if entries else {}
        super().__init__(
            size=6 * WORD_SIZE + self.BYTES_PER_ENTRY * len(self.entries)
        )
        self.scan_work = len(self.entries)

    @classmethod
    def with_entries(cls, count: int) -> "GoMap":
        """Build a map pre-populated with ``count`` opaque entries.

        The entries are plain integers: they cost simulated memory but do
        not add edges to the reference graph, matching a ``map[int]int``.
        """
        return cls({i: i for i in range(count)})

    @classmethod
    def sized(cls, count: int) -> "GoMap":
        """A map *accounted* as holding ``count`` entries without
        materializing them.

        Workload simulators use this for the paper's 100K-entry
        per-request hash maps: the simulated size and marking cost scale
        with ``count`` while the Python-side cost stays O(1).
        """
        m = cls()
        m.size = 6 * WORD_SIZE + cls.BYTES_PER_ENTRY * count
        m.scan_work = count
        return m

    def get(self, key: Any, default: Any = None) -> Any:
        return self.entries.get(key, default)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: Any) -> bool:
        return key in self.entries

    def __getitem__(self, key: Any) -> Any:
        return self.entries[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        self._barrier(key)
        self._barrier(value)
        if key not in self.entries:
            self.resize(self.size + self.BYTES_PER_ENTRY)
        self.entries[key] = value

    def __delitem__(self, key: Any) -> None:
        del self.entries[key]
        self.resize(self.size - self.BYTES_PER_ENTRY)

    def referents(self) -> List[HeapObject]:
        # Depth -1: the backing dict is not a nesting level, so each key
        # and value is scanned as a top-level value, key before value.
        out: List[HeapObject] = []
        scan_into(self.entries, out, -1)
        return out


class Blob(HeapObject):
    """An opaque byte buffer with no outgoing references.

    Used by workloads to create memory pressure (request payloads, caches)
    without growing the traced edge count.
    """

    __slots__ = ()
    kind = "blob"

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("blob size must be non-negative")
        super().__init__(size=size)


def _type_pure(cls: type) -> bool:
    """Whether ``isinstance`` answers for every instance of ``cls`` from
    ``cls`` alone.

    ``isinstance(v, C)`` also consults ``v.__class__``, which an
    instance can report as something other than its type through a
    ``__class__`` attribute (``Mock(spec=Channel)``), a Python-level
    ``__getattribute__``, or a C proxy (``weakref.proxy``).
    """
    if cls in ProxyTypes:
        return False
    for klass in cls.__mro__:
        if klass is object:
            continue
        attrs = klass.__dict__
        if "__class__" in attrs:
            return False
        # A C type's own slot (``int``, ``list``) reads ``__class__``
        # from the type; a Python-level override may not.
        getattribute = attrs.get("__getattribute__")
        if (getattribute is not None
                and type(getattribute) is not WrapperDescriptorType):
            return False
    return True


def _classify(value: Any) -> int:
    """The kind of a value whose type :data:`_KINDS` does not hold.

    The precedence is the scanner's: heap object, then sequence/set,
    then dict, else opaque (exact scalars and containers are seeded).
    For a type-pure type ``isinstance`` is ``issubclass`` of the type,
    so the answer for one instance is the type's, and it is cached while
    the table has room; any other type is asked again on each call.
    """
    if isinstance(value, HeapObject):
        kind = _HEAP
    elif isinstance(value, _PLAIN):
        kind = _PLAIN_SUB
    else:
        kind = _DICT_SUB if isinstance(value, dict) else _OPAQUE
    cls = type(value)
    if len(_KINDS) < _KINDS_MAX and _type_pure(cls):
        _KINDS[cls] = kind
    return kind


def scan_into(value: Any, out: List[HeapObject], _depth: int = 0) -> None:
    """Append the heap objects found in ``value`` to ``out``.

    The conservative scanner's one kernel: depth-first, container order,
    dict key before value, a :class:`HeapObject` taken at any depth and
    containers not entered at ``_MAX_SCAN_DEPTH``.  The kind is looked
    up by exact type, so a subclass (``IntEnum``, a ``namedtuple``) has
    its own entry, never its base's; a container holding only scalars is
    rejected by one C-level pass over its element types, for the exact
    container types only.

    Inside a mark pass (:func:`open_pass`) an exact container of at least
    ``_MEMO_MIN_LEN`` elements is scanned once per depth: a repeat visit
    appends the references its first scan found, which is what a rescan
    would append, since no mutator runs inside a pass.
    """
    kind = _KINDS.get(type(value), _UNSEEN)
    if kind == _UNSEEN:
        kind = _classify(value)
    if kind < _HEAP:
        return
    if kind == _HEAP:
        out.append(value)
        return
    if _depth >= _MAX_SCAN_DEPTH:
        return
    memo = _pass_memo
    start = -1
    if (memo is not None and (kind == _PLAIN_EXACT or kind == _DICT_EXACT)
            and _depth >= 0 and len(value) >= _MEMO_MIN_LEN):
        seen = memo.get(id(value))
        if seen is not None and seen[1] == _depth:
            out.extend(seen[2])
            return
        start = len(out)
    if kind <= _PLAIN_SUB:
        if kind != _PLAIN_EXACT or not _SCALARS.issuperset(map(type, value)):
            for item in value:
                if type(item) not in _SCALARS:
                    scan_into(item, out, _depth + 1)
    elif (kind != _DICT_EXACT or not _SCALARS.issuperset(map(type, value))
          or not _SCALARS.issuperset(map(type, value.values()))):
        for key, item in value.items():
            if type(key) not in _SCALARS:
                scan_into(key, out, _depth + 1)
            if type(item) not in _SCALARS:
                scan_into(item, out, _depth + 1)
    if start >= 0:
        memo[id(value)] = (value, _depth, out[start:])


def open_pass() -> Optional[PassMemo]:
    """Open a mark pass's container memo; returns the enclosing one.

    The caller runs no mutator until it hands the result back to
    :func:`close_pass`, in a ``finally``.  A pass is one marking call,
    never a cycle: incremental steps interleave with the mutator.
    """
    global _pass_memo
    enclosing = _pass_memo
    _pass_memo = {}
    return enclosing


def close_pass(enclosing: Optional[PassMemo]) -> None:
    """Drop the open pass's memo and restore ``enclosing``."""
    global _pass_memo
    _pass_memo = enclosing


def scan_each(values: Iterable[Any],
              out: List[HeapObject]) -> List[HeapObject]:
    """Scan every element of ``values`` as a top-level value; returns ``out``.

    For the slots a runtime object owns (struct fields, a channel
    buffer, frame locals): ``values`` is any re-iterable, not itself a
    nesting level.  A slot whose type is in :data:`_KINDS` as a heap
    object, scalar or opaque value is settled here without a call.
    """
    if not _SCALARS.issuperset(map(type, values)):
        kinds = _KINDS.get
        for value in values:
            kind = kinds(type(value), _UNSEEN)
            if kind == _HEAP:
                out.append(value)
            elif kind > _HEAP:
                scan_into(value, out)
    return out


def iter_heap_refs(value: Any) -> List[HeapObject]:
    """The heap objects found in ``value``, scanning through containers.

    Single-value entry to :func:`scan_into`, used for goroutine stack
    frames and the payload slots of runtime objects.
    """
    out: List[HeapObject] = []
    scan_into(value, out)
    return out
