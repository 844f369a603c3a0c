"""The conservative scanner's eager kernel against its lazy reference.

``repro.runtime.objects.scan_into`` replaced a recursive generator.  The
generator lives on here, verbatim, as the reference: every producer that
builds a list through the kernel must return what chaining the reference
over the same slots yields — same objects, same order, same depth limit —
because the collector charges one work unit per returned edge.
"""

from __future__ import annotations

import collections
import enum
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import GolfConfig, Runtime
from repro.gc.heap import GlobalRoot
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

#: A fixed pool, so one object can turn up at several places in a value.
OBJECTS = [Box(i) for i in range(4)] + [Blob(8), Struct(a=1)]

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.complex_numbers(allow_nan=False), st.text(max_size=3),
    st.binary(max_size=3), st.sampled_from(list(Color)),
    st.builds(Tag, st.text(max_size=3)), st.builds(Counted, st.integers()),
)
hashable_leaves = st.one_of(scalars, st.sampled_from(OBJECTS))


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


values = st.recursive(hashable_leaves, containers, max_leaves=25)


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


def parked(body_factory):
    """Run ``main`` spawning one goroutine per body until all are parked;
    returns the goroutines."""
    rt = Runtime(procs=2, seed=7, config=GolfConfig())
    spawned = []

    def main():
        bodies = yield from body_factory()
        for body in bodies:
            spawned.append((yield Go(body)))
        yield Sleep(10_000 * MICROSECOND)

    rt.spawn_main(main)
    rt.run(until_ns=200 * MICROSECOND)
    return spawned


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
        """Python-level function calls made while running ``fn``."""
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(profiler)
        try:
            fn()
        finally:
            sys.setprofile(None)
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
            counts[n] = self._python_calls(lambda: list(g.stack_heap_refs()))
        assert counts[10] == counts[100_000]
        assert counts[10] < 10


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

    def service(self, name):
        return None


class TestPinnedMarkWork:
    """Totals of a small controlled run at the commit before the kernel.
    A scanner change that drops, adds or double-counts an edge moves
    ``mark_work_units``; one that changes what is reachable moves the
    detector's counts."""

    @pytest.mark.parametrize("mode,expected", [
        ("atomic", dict(mark_work_units=237_833_858, mark_iterations=157,
                        liveness_checks=4785, num_gc=59, deadlocks=45)),
        ("incremental", dict(mark_work_units=204_113_786, mark_iterations=113,
                             liveness_checks=4123, num_gc=40, deadlocks=45)),
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
