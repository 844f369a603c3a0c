"""The conservative scanner's eager kernel against its lazy reference.

``repro.runtime.objects.scan_into`` replaced a recursive generator.  The
generator lives on here, verbatim, as the reference: every producer that
builds a list through the kernel must return what chaining the reference
over the same slots yields — same objects, same order, same depth limit —
because the collector charges one work unit per returned edge.
"""

from __future__ import annotations

import collections
import contextlib
import enum
import gc
import sys
import weakref
from unittest.mock import Mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import GolfConfig, Runtime
from repro.gc.heap import GlobalRoot, Heap
from repro.gc.marking import drain_budget, mark_from
from repro.runtime import objects
from repro.runtime.channel import Channel
from repro.runtime.clock import MICROSECOND
from repro.runtime.context import Context
from repro.runtime.errgroup import Group
from repro.runtime.goroutine import Goroutine, Sudog
from repro.runtime.instructions import (
    Alloc,
    Go,
    Lock,
    MakeChan,
    NewMutex,
    Recv,
    RunGC,
    Select,
    Send,
    SendCase,
    SetGlobal,
    Sleep,
)
from repro.runtime.objects import (
    _MAX_SCAN_DEPTH,
    Blob,
    Box,
    GoMap,
    HeapObject,
    Slice,
    Struct,
    iter_heap_refs,
    scan_each,
    scan_into,
)
from repro.runtime.sync import Cond, Mutex, Pool, WaitGroup
from repro.runtime.timers import Ticker, Timer
from repro.service.controlled import ControlledConfig, run_controlled


def reference(value, _depth=0):
    """The scanner as it stood before the kernel (a recursive generator)."""
    if isinstance(value, HeapObject):
        yield value
        return
    if _depth >= _MAX_SCAN_DEPTH:
        return
    if isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from reference(item, _depth + 1)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from reference(key, _depth + 1)
            yield from reference(item, _depth + 1)


def ids(refs):
    return [id(r) for r in refs]


def assert_same_scan(value):
    assert ids(iter_heap_refs(value)) == ids(reference(value))


# -- generated values ---------------------------------------------------------


class Color(enum.IntEnum):
    RED = 1
    BLUE = 2


class Tag(str):
    pass


class Counted(int):
    pass


Pair = collections.namedtuple("Pair", "left right")


class Plain:
    pass


class Slotted:
    __slots__ = ("x",)


def a_function():
    pass


class Masquerade:
    """Reports a heap-object class through ``__getattribute__``, which
    ``isinstance`` consults."""

    def __getattribute__(self, name):
        if name == "__class__":
            return Box
        return object.__getattribute__(self, name)


class Weakable(Box):
    """A heap object without ``__slots__``, so it takes weak references."""


#: A fixed pool, so one object can turn up at several places in a value.
OBJECTS = [Box(i) for i in range(4)] + [Blob(8), Struct(a=1), Weakable(5)]

#: Values whose types the kind table caches as opaque, and two it must
#: never cache: ``Mock(spec=Channel)`` and ``Masquerade`` are heap objects
#: only because ``isinstance`` asks the instance for its class.
opaque = st.one_of(
    st.builds(Plain), st.builds(Slotted), st.just(a_function),
    st.builds(lambda: Mock(spec=Channel)), st.builds(Masquerade),
)

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.complex_numbers(allow_nan=False), st.text(max_size=3),
    st.binary(max_size=3), st.sampled_from(list(Color)),
    st.builds(Tag, st.text(max_size=3)), st.builds(Counted, st.integers()),
)
hashable_leaves = st.one_of(scalars, st.sampled_from(OBJECTS), opaque)
#: ``weakref.proxy`` answers ``isinstance`` for its referent, and is
#: unhashable.
leaves = st.one_of(hashable_leaves, st.sampled_from(
    [weakref.proxy(OBJECTS[-1]), weakref.proxy(a_function)]))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.sets(hashable_leaves, max_size=4),
        st.frozensets(hashable_leaves, max_size=4),
        st.dictionaries(hashable_leaves, children, max_size=4),
        st.dictionaries(hashable_leaves, children, max_size=3).map(
            lambda d: collections.defaultdict(list, d)),
        st.dictionaries(hashable_leaves, children, max_size=3).map(
            collections.OrderedDict),
        st.tuples(children, children).map(lambda t: Pair(*t)),
        # One sub-container reached by three paths.
        children.map(lambda v: [v, (v,), {"again": v}]),
    )


values = st.recursive(leaves, containers, max_leaves=25)


def nest(value, levels, wrap=lambda v: [v]):
    for _ in range(levels):
        value = wrap(value)
    return value


class TestKernelAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(values)
    def test_generated_values(self, value):
        assert_same_scan(value)

    @settings(max_examples=100, deadline=None)
    @given(values, st.integers(_MAX_SCAN_DEPTH - 3, _MAX_SCAN_DEPTH + 1))
    def test_generated_values_near_the_depth_limit(self, value, levels):
        assert_same_scan(nest(value, levels))

    @pytest.mark.parametrize("levels", [
        _MAX_SCAN_DEPTH - 1, _MAX_SCAN_DEPTH, _MAX_SCAN_DEPTH + 1])
    @pytest.mark.parametrize("wrap", [
        lambda v: [v], lambda v: (v,), lambda v: {"k": v}, lambda v: {0: v}],
        ids=["list", "tuple", "dict-str", "dict-int"])
    def test_depth_limit_boundary(self, levels, wrap):
        box = Box(1)
        # Directly nested object and one more container level below it.
        for leaf in (box, [box], (0, box), {box: box}):
            value = nest(leaf, levels, wrap)
            assert_same_scan(value)
        # The limit is real: an object is found at depth MAX, not past it.
        found = iter_heap_refs(nest(box, levels, wrap))
        assert found == ([box] if levels <= _MAX_SCAN_DEPTH else [])

    def test_self_referential_list(self):
        box = Box(1)
        loop = [box, 7]
        loop.append(loop)
        assert_same_scan(loop)
        assert len(iter_heap_refs(loop)) == _MAX_SCAN_DEPTH

    def test_scalar_only_containers_hold_nothing(self):
        for value in ([1, 2.0, "s", b"b", True, None, 1j], (1, 2), {1, 2},
                      frozenset({"a"}), {"k": 1, 2: "v"}, list(range(1000))):
            assert iter_heap_refs(value) == []

    def test_subclasses_take_the_general_path(self):
        box = Box(1)

        class Row(list):
            def __iter__(self):  # hides nothing: iteration is the contract
                return iter([box])

        class IntKeyed(dict):
            pass

        for value in (Row([1, 2]), [Row()], IntKeyed({1: box}),
                      [Color.RED, box, Tag("t")], Pair(Counted(1), box),
                      {Color.BLUE: box}, collections.deque([box])):
            assert_same_scan(value)
        assert iter_heap_refs(Row([1, 2])) == [box]

    def test_object_as_key_value_and_element(self):
        a, b, c = Box(1), Box(2), Box(3)
        value = {a: [b, {c: a}], "k": (c, c)}
        assert iter_heap_refs(value) == [a, b, c, a, c, c]
        assert_same_scan(value)


@pytest.fixture
def seeded_table(monkeypatch):
    """A private kind table holding only the seeded exact types."""
    seeds = {cls: kind for cls, kind in objects._KINDS.items()
             if kind in (objects._SCALAR, objects._PLAIN_EXACT,
                         objects._DICT_EXACT)}
    monkeypatch.setattr(objects, "_KINDS", seeds)
    return seeds


@pytest.mark.usefixtures("seeded_table")
class TestKindTable:
    def test_instance_reported_classes_never_enter_the_table(self):
        box = Weakable(1)
        for value in (Mock(spec=Channel), Masquerade(), weakref.proxy(box),
                      weakref.proxy(a_function)):
            for _ in range(2):
                assert_same_scan(value)
                assert_same_scan([value, (value,), {"k": value}])
                assert (ids(scan_each([value, box], []))
                        == ids(chain([value, box])))
            assert type(value) not in objects._KINDS
        assert iter_heap_refs(Mock(spec=Channel)) != []
        assert iter_heap_refs(Mock()) == []

    def test_kinds_follow_the_scanner_precedence(self):
        class Both(Box, Plain):
            pass

        class Row(tuple):
            pass

        class Keyed(collections.OrderedDict):
            pass

        for value, kind in ((Both(), objects._HEAP), (Row(), objects._PLAIN_SUB),
                            (Keyed(), objects._DICT_SUB),
                            (Color.RED, objects._OPAQUE),
                            (Plain(), objects._OPAQUE)):
            iter_heap_refs(value)
            assert objects._KINDS[type(value)] == kind

    def test_the_table_stops_growing_at_its_cap(self):
        box = Box(1)
        bases = ((Box,), (list,), (dict,), (Plain,))
        fresh = [type(f"Fresh{i}", bases[i % 4], {})
                 for i in range(objects._KINDS_MAX + 40)]

        def instance(cls):
            if issubclass(cls, Box):
                return cls(box)
            if issubclass(cls, list):
                return cls([box, 1])
            return cls({box: 2}) if issubclass(cls, dict) else cls()

        for _ in range(2):
            for cls in fresh:
                value = instance(cls)
                assert_same_scan(value)
                assert_same_scan([value, 3])
                assert ids(scan_each([value], [])) == ids(reference(value))
            assert len(objects._KINDS) == objects._KINDS_MAX
        assert fresh[-1] not in objects._KINDS


# -- one scan per container per mark pass -------------------------------------


@contextlib.contextmanager
def open_pass(min_len=0):
    """A mark pass scope that memoises containers of ``min_len`` elements
    and up (0: every exact container, so the generated values hit it)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(objects, "_MEMO_MIN_LEN", min_len)
        enclosing = objects.open_pass()
        try:
            yield
        finally:
            objects.close_pass(enclosing)


def scanned(value, depth=0):
    out = []
    scan_into(value, out, depth)
    return out


class _Tally(frozenset):
    """``_SCALARS`` with a count of the element types its
    ``issuperset`` consumed: the scanner's per-element work."""

    def issuperset(self, other):
        for cls in other:
            self.consumed += 1
            if cls not in self:
                return False
        return True


class TestPassMemo:
    @settings(max_examples=300, deadline=None)
    @given(values)
    def test_generated_values_scanned_twice_in_one_pass(self, value):
        with open_pass():
            for _ in range(2):
                assert ids(scanned(value)) == ids(reference(value))
            assert_same_scan([value, (value,), {"again": value}])

    @settings(max_examples=200, deadline=None)
    @given(values, st.integers(0, _MAX_SCAN_DEPTH), st.integers(0, 3))
    def test_a_value_shared_at_two_depths(self, value, depth, deeper):
        """The second visit is the reference at its own depth, not a
        replay of the first visit's."""
        with open_pass():
            for at in (depth, depth + deeper, depth):
                assert ids(scanned(value, at)) == ids(reference(value, at))
            assert_same_scan([value, nest(value, deeper), value])

    def test_self_referential_lists(self):
        box = Box(1)
        short = [box, 7]
        short.append(short)
        long = [box] + list(range(objects._MEMO_MIN_LEN))
        long.append(long)
        for min_len in (0, objects._MEMO_MIN_LEN):
            with open_pass(min_len):
                for loop in (short, long, short, long):
                    assert_same_scan(loop)
                    assert ids(scanned(loop, 3)) == ids(reference(loop, 3))
        assert len(iter_heap_refs(short)) == _MAX_SCAN_DEPTH

    def test_a_pass_replays_and_the_next_pass_sees_a_mutation(self):
        a, b = Box(1), Box(2)
        shared = [a] + list(range(objects._MEMO_MIN_LEN))
        with open_pass(objects._MEMO_MIN_LEN):
            assert scanned(shared) == [a]
            # No mutator runs inside a real pass; one here shows the
            # second visit is a replay.
            shared.append(b)
            assert scanned(shared) == [a]
        with open_pass(objects._MEMO_MIN_LEN):
            assert scanned(shared) == [a, b]
            assert scanned(shared) == [a, b]
        assert objects._pass_memo is None

    def test_short_containers_and_subclasses_are_never_memoised(self):
        class Row(list):
            pass

        class Keyed(dict):
            pass

        a, b = Box(1), Box(2)
        filler = list(range(objects._MEMO_MIN_LEN))
        # Still one element short after the append below.
        short = [a] + filler[3:]
        row, keyed = Row([a] + filler), Keyed({a: 0, **dict.fromkeys(filler)})
        with open_pass(objects._MEMO_MIN_LEN):
            for value in (short, row, keyed):
                assert scanned(value) == [a]
            short.append(b)
            row.append(b)
            keyed[b] = 0
            for value in (short, row, keyed):
                assert scanned(value) == [a, b]
            assert objects._pass_memo == {}

    def test_gomap_backing_dict_is_not_memoised(self):
        a, n = Box(1), objects._MEMO_MIN_LEN
        gomap = GoMap({i: a for i in range(n)})
        with open_pass():
            for _ in range(2):
                assert gomap.referents() == [a] * n
            assert objects._pass_memo == {}

    def test_each_marking_call_opens_a_pass_and_closes_it_on_a_raise(self):
        """``mark_from`` and ``drain_budget`` scan inside a fresh memo and
        restore the enclosing one, also when a scan raises mid-pass."""
        seen = []

        class Faulty(Box):
            def referents(self):
                seen.append(objects._pass_memo)
                raise RuntimeError("mid-pass")

        shared = list(range(objects._MEMO_MIN_LEN))
        heap = Heap()
        marks = {
            "mark_from": lambda root: mark_from(heap, [root, Box(shared)]),
            "drain_budget": lambda root: drain_budget(
                heap, [Box(shared), root], 10**6),
        }
        for name, mark in marks.items():
            for enclosing in (None, {}):
                heap.begin_cycle()
                objects._pass_memo = enclosing
                try:
                    with pytest.raises(RuntimeError, match="mid-pass"):
                        mark(Box(Slice([shared, Faulty()])))
                    assert objects._pass_memo is enclosing, name
                finally:
                    objects._pass_memo = None
                memo = seen.pop()
                assert memo is not enclosing and id(shared) in memo, name

    def test_a_captured_list_costs_one_element_pass_per_mark(
            self, monkeypatch):
        """The ``svc-leak-*`` shape: k parked goroutines close over one
        n-element list of ints.  One ``mark_from`` type-checks its
        elements once, not once per frame."""
        n = 1000
        consumed = {}
        for k in (1, 8, 32):
            latencies = list(range(n))

            def setup():
                ch = yield MakeChan(0)

                def conn():
                    yield Recv(ch)
                    latencies.append(0)

                return [conn] * k

            rt, goroutines = parked_runtime(setup)
            assert len(goroutines) == k
            tally = _Tally(objects._SCALARS)
            tally.consumed = 0
            monkeypatch.setattr(objects, "_SCALARS", tally)
            rt.heap.begin_cycle()
            mark_from(rt.heap, goroutines)
            monkeypatch.undo()
            consumed[k] = tally.consumed
        # Beyond the list: a frame's locals stop at its first heap slot.
        for k in (8, 32):
            assert n <= consumed[k] <= consumed[1] + 4 * k, consumed


# -- producers ----------------------------------------------------------------


def chain(values):
    return [r for v in values for r in reference(v)]


def reference_referents(obj):
    """What each ``referents()`` yielded when it chained the generator."""
    kind = obj.kind
    if kind == "box":
        return list(reference(obj._value))
    if kind == "struct":
        return chain(obj.fields.values())
    if kind == "slice":
        return chain(obj.items)
    if kind == "map":
        return chain(x for kv in obj.entries.items() for x in kv)
    if kind == "chan":
        return chain(obj.buffer) + chain(
            sd.value for sd in obj.sendq if sd.active)
    if kind == "pool":
        return chain(obj._items) + chain(obj._victims)
    if kind == "globals":
        return chain(obj.names.values())
    if kind == "cond":
        return [obj.locker]
    if kind in ("ticker", "timer"):
        return [obj.ch]
    if kind == "context":
        done = [] if obj.done is None else [obj.done]
        return done + list(obj.children)
    if kind == "errgroup":
        return [obj.wg] + ([] if obj.ctx is None else [obj.ctx])
    raise AssertionError(f"no reference for {kind}")


def _payloads():
    a, b, c = Box("a"), Box("b"), Blob(4)
    nested = nest((a, 0), _MAX_SCAN_DEPTH - 1)
    too_deep = nest([b], _MAX_SCAN_DEPTH)
    return a, b, c, [1, "s", [a, {b: (c, None)}], {c}, nested, too_deep,
                     Color.RED, list(range(50))]


def _box():
    *_, mixed = _payloads()
    return Box(mixed)


def _struct():
    a, b, c, mixed = _payloads()
    return Struct(n=1, obj=a, many=mixed, pair=Pair(b, c), none=None)


def _slice():
    a, _, c, mixed = _payloads()
    return Slice([0, a, mixed, "s", c, a])


def _gomap():
    a, b, c, mixed = _payloads()
    return GoMap({a: b, "k": mixed, 3: 4, c: [a], (b, 1): None})


def _chan():
    a, b, c, mixed = _payloads()
    ch = Channel(capacity=4)
    ch.buffer.extend([1, a, (b, 0), mixed])
    g = Goroutine(goid=1)
    live = Sudog(g, ch, [c, {a: 1}], is_send=True)
    stale = Sudog(g, ch, b, is_send=True)
    stale.active = False
    ch.sendq.extend([stale, live])
    ch.recvq.append(Sudog(g, ch, a, is_send=False))
    return ch


def _pool():
    a, b, _, mixed = _payloads()
    pool = Pool()
    pool.put(a)
    pool.put(mixed)
    pool.on_gc()
    pool.put([b, 1])
    pool.put(7)
    return pool


def _globals():
    a, b, _, mixed = _payloads()
    data = GlobalRoot()
    data.set("a", a)
    data.set("n", 3)
    data.set("mixed", mixed)
    data.set("b", (b,))
    return data


def _context():
    ctx = Context(done=Channel())
    ctx.children.extend([Context(done=None), Context(done=Channel())])
    return ctx


PRODUCERS = {
    "box": _box, "struct": _struct, "slice": _slice, "map": _gomap,
    "chan": _chan, "pool": _pool, "globals": _globals,
    "cond": lambda: Cond(Mutex()),
    "ticker": lambda: Ticker(Channel(1), 5),
    "timer": lambda: Timer(Channel(1)),
    "context": _context,
    "context-background": lambda: Context(done=None),
    "errgroup": lambda: Group(WaitGroup()),
    "errgroup-ctx": lambda: Group(WaitGroup(), ctx=Context(done=Channel())),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestProducers:
    @pytest.mark.parametrize("name", sorted(PRODUCERS))
    def test_referents_match_the_reference_composition(self, name):
        obj = PRODUCERS[name]()
        got = obj.referents()
        assert isinstance(got, list)
        assert ids(got) == ids(reference_referents(obj))

    def test_every_referents_override_is_covered(self):
        overriding = {
            cls.kind for cls in _subclasses(HeapObject)
            if cls.__module__.startswith("repro.")
            and "referents" in vars(cls)}
        covered = {PRODUCERS[name]().kind for name in PRODUCERS}
        assert overriding - {"goroutine"} == covered

    def test_default_object_and_blob_have_no_referents(self):
        assert HeapObject().referents() == ()
        assert Blob(16).referents() == ()

    def test_referents_excluding_hides_only_the_named_globals(self):
        data = _globals()
        expected = chain(v for n, v in data.names.items()
                         if n not in ("a", "mixed"))
        assert ids(data.referents_excluding({"a", "mixed"})) == ids(expected)
        assert ids(data.referents_excluding(())) == ids(data.referents())


# -- goroutine stacks ---------------------------------------------------------


def reference_stack_heap_refs(g):
    gen = g.gen
    while gen is not None and getattr(gen, "gi_frame", None) is not None:
        for value in gen.gi_frame.f_locals.values():
            yield from reference(value)
        gen = getattr(gen, "gi_yieldfrom", None)
    yield from reference(g.pending_value)
    for sd in g.sudogs:
        if sd.active and sd.channel is not None:
            yield sd.channel
            yield from reference(sd.value)
    if g.blocking_sema is not None:
        yield g.blocking_sema


def parked_runtime(body_factory):
    """Run ``main`` spawning one goroutine per body until all are parked;
    returns the runtime and the goroutines."""
    rt = Runtime(procs=2, seed=7, config=GolfConfig())
    spawned = []

    def main():
        bodies = yield from body_factory()
        for body in bodies:
            spawned.append((yield Go(body)))
        yield Sleep(10_000 * MICROSECOND)

    rt.spawn_main(main)
    rt.run(until_ns=200 * MICROSECOND)
    return rt, spawned


def parked(body_factory):
    return parked_runtime(body_factory)[1]


class TestGoroutineStacks:
    def test_stack_scan_matches_the_reference_composition(self):
        def setup():
            a, b, c, mixed = _payloads()
            for obj in (a, b, c):
                yield Alloc(obj)
            never = yield MakeChan(0)
            other = yield MakeChan(0)
            third = yield MakeChan(0)
            mu = yield NewMutex()
            yield Lock(mu)
            captured = [a, 3, {"deep": (b,)}]

            def helper(arg):
                scratch = {c: arg, "n": 1}  # noqa: F841
                # Select parks with one sudog per case; the send case's
                # value is a container.
                yield Select([SendCase(never, (a, [b])), SendCase(other, 5)])

            def selector():
                local_list = mixed  # noqa: F841
                closure_cell = captured  # noqa: F841
                yield from helper([c, c])

            def receiver():
                box = a  # noqa: F841
                yield Recv(third)

            def locker():
                ints = list(range(100))  # noqa: F841
                yield Lock(mu)

            return [selector, receiver, locker]

        goroutines = parked(setup)
        assert len(goroutines) == 3
        selector, receiver, locker = goroutines
        assert sum(sd.active for sd in selector.sudogs) >= 1
        assert selector.gen.gi_yieldfrom is not None
        assert locker.blocking_sema is not None
        receiver.pending_value = (Box(9), [Box(10)], 4)
        for g in goroutines:
            got = g.stack_heap_refs()
            assert isinstance(got, list) and got
            assert ids(got) == ids(reference_stack_heap_refs(g))
            assert ids(g.referents()) == ids(got)

    @staticmethod
    def _python_calls(fn):
        """Python-level function calls made while running ``fn``, cyclic
        collector off.

        A collection inside the window may close a dead runtime's
        suspended goroutine bodies, and each close is a ``call``.
        Collect first and keep the collector off for the window, so the
        count is the scan's own.
        """
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        sys.setprofile(profiler)
        try:
            fn()
        finally:
            sys.setprofile(None)
            if was_enabled:
                gc.enable()
        return calls

    def test_scan_cost_does_not_grow_with_a_captured_list_of_ints(self):
        """The ``svc-leak-*`` shape: every connection's frame closes over
        one host-side list of latencies.  Scanning it must cost no
        Python-level call per element."""
        counts = {}
        for n in (10, 100_000):
            latencies = list(range(n))

            def setup():
                ch = yield MakeChan(0)

                def conn():
                    yield Recv(ch)
                    latencies.append(0)

                return [conn]

            (g,) = parked(setup)
            assert any(v is latencies
                       for v in g.gen.gi_frame.f_locals.values())
            g.stack_heap_refs()  # classifies each slot type on first sight
            counts[n] = self._python_calls(lambda: list(g.stack_heap_refs()))
        assert counts[10] == counts[100_000]
        assert counts[10] < 10

    def test_scan_cost_does_not_grow_with_object_slots(self):
        """A frame whose locals hold k heap objects and k opaque objects:
        each such slot is settled inside ``scan_each``, so the stack scan
        makes the same number of Python-level calls at any k."""
        counts = {}
        for k in (2, 200):
            names = [f"heap{i}" for i in range(k)] + [f"opaque{i}"
                                                     for i in range(k)]
            values = [Box(i) for i in range(k)] + [Plain() for _ in range(k)]

            def setup():
                ch = yield MakeChan(0)
                namespace = {"Recv": Recv, "ch": ch, "values": values}
                exec(f"def holder():\n"
                     f"    {', '.join(names)}, = values\n"
                     f"    yield Recv(ch)\n", namespace)
                return [namespace["holder"]]

            (g,) = parked(setup)
            assert len(g.gen.gi_frame.f_locals) == 2 * k
            # Also the warm-up: each type is classified on first sight.
            assert ids(g.stack_heap_refs()) == ids(
                reference_stack_heap_refs(g))
            counts[k] = self._python_calls(g.stack_heap_refs)
        assert counts[2] == counts[200]


# -- in-flight instruction operands -------------------------------------------


class TestInflightOperands:
    def test_heap_refs_scan_through_container_operands(self):
        ch, a, b = Channel(), Box(1), Box(2)
        assert Send(ch, (a, 0)).heap_refs() == (ch, a)
        assert Send(None, [a, {b: 1}]).heap_refs() == (a, b)
        select = Select([SendCase(ch, [a, (b,)]), SendCase(None, {"k": a})])
        assert select.heap_refs() == (ch, a, b, a)
        assert Go(lambda: None, 1, (a,), b, [[b]]).heap_refs() == (a, b, b)
        assert SetGlobal("g", {"k": [a]}).heap_refs() == (a,)
        assert SetGlobal("g", 3).heap_refs() == ()

    @pytest.mark.parametrize("seed", range(5))
    def test_object_inside_an_inflight_send_operand_survives_gc(self, seed):
        """``yield Send(ch, (box, 0))``: while the send's cost elapses the
        tuple lives only in the instruction, and a cycle run by a sibling
        must not sweep the box inside it."""
        rt = Runtime(procs=2, seed=seed, config=GolfConfig())
        lost = []

        def main():
            ch = yield MakeChan(1)

            def collect():
                for _ in range(40):
                    yield RunGC()

            def sender():
                for _ in range(10):
                    yield Send(ch, ((yield Alloc(Box(7))), 0))

            yield Go(collect)
            yield Go(sender)
            for _ in range(10):
                (box, _), _ = yield Recv(ch)
                if not rt.heap.contains(box):
                    lost.append(box)

        rt.spawn_main(main)
        rt.run(max_instructions=100_000)
        assert rt.collector.stats.num_gc >= 10
        assert lost == []


# -- pinned totals ------------------------------------------------------------


class _CaptureRuntime:
    """Stands in for a telemetry hub to get at the service's runtime."""

    def attach(self, rt):
        self.rt = rt


class TestPinnedMarkWork:
    """Totals of a small controlled run, pinned in both collector modes.
    A scanner change that drops, adds or double-counts an edge moves
    ``mark_work_units``; one that changes what is reachable moves the
    detector's counts."""

    @pytest.mark.parametrize("mode,expected", [
        ("atomic", dict(mark_work_units=237_833_958, mark_iterations=60,
                        liveness_checks=3519, num_gc=60, deadlocks=45)),
        ("incremental", dict(mark_work_units=232_330_814, mark_iterations=58,
                             liveness_checks=3455, num_gc=58, deadlocks=45)),
    ])
    def test_controlled_service_totals(self, mode, expected):
        capture = _CaptureRuntime()
        result = run_controlled(
            ControlledConfig(duration_s=3, warmup_s=1, leak_rate=0.1, seed=7),
            telemetry=capture, gc_config=GolfConfig(gc_mode=mode))
        cycles = capture.rt.collector.stats.cycles
        assert dict(
            mark_work_units=sum(c.mark_work_units for c in cycles),
            mark_iterations=sum(c.mark_iterations for c in cycles),
            liveness_checks=sum(c.liveness_checks for c in cycles),
            num_gc=len(cycles),
            deadlocks=result.deadlocks_detected,
        ) == expected
