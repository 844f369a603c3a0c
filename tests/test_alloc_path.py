"""The allocation path's contract: what a constructor, ``Heap.allocate``
and a reference store leave behind.

Every heap object is built by one ``HeapObject.__init__`` call, the heap
reads the per-cycle aging opt-in as a plain class attribute, and a store
calls ``Heap.write_barrier`` only while the incremental collector's
MARKING phase has the barrier armed.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import pkgutil
import tracemalloc

import pytest

import repro.gc
import repro.runtime
import repro.service
from repro import GolfConfig, Runtime
from repro.fleet.supervisor import FleetConfig, run_fleet
from repro.gc.heap import GlobalRoot, Heap
from repro.gc.phases import GCPhase
from repro.microbench.harness import run_microbenchmark
from repro.microbench.registry import all_benchmarks
from repro.runtime.channel import Channel
from repro.runtime.clock import MICROSECOND, MILLISECOND, Clock
from repro.runtime.context import Context
from repro.runtime.errgroup import Group
from repro.runtime.goroutine import Goroutine
from repro.runtime.instructions import Defer, Go, MakeChan, Recv, Send, Sleep
from repro.runtime.objects import (
    WORD_SIZE, Blob, Box, GoMap, HeapObject, Slice, Struct,
)
from repro.runtime.sema import Semaphore
from repro.runtime.sync import Cond, Mutex, Once, Pool, RWMutex, WaitGroup
from repro.runtime.timers import Ticker, Timer
from repro.runtime.waitreason import WaitReason
from repro.service.resilience import CircuitBreaker
from repro.trace import events as ev
from repro.trace.tracer import BLOCK, ExecutionTracer

#: One constructor call per concrete heap class, with the simulated size
#: it must produce (sizes feed ``HeapAlloc`` and every pinned digest).
BUILDS = {
    Box: (lambda: Box(1), 2 * WORD_SIZE),
    Struct: (lambda: Struct(a=1, b=2), 4 * WORD_SIZE),
    Slice: (lambda: Slice([1, 2]), 5 * WORD_SIZE),
    GoMap: (lambda: GoMap({1: 2}), 6 * WORD_SIZE + GoMap.BYTES_PER_ENTRY),
    Blob: (lambda: Blob(40), 40),
    Channel: (lambda: Channel(3), 15 * WORD_SIZE),
    Context: (lambda: Context(Channel()), 5 * WORD_SIZE),
    Group: (lambda: Group(WaitGroup()), 4 * WORD_SIZE),
    Goroutine: (lambda: Goroutine(1), 424),
    Semaphore: (lambda: Semaphore(), WORD_SIZE),
    Mutex: (lambda: Mutex(), 2 * WORD_SIZE),
    RWMutex: (lambda: RWMutex(), 4 * WORD_SIZE),
    WaitGroup: (lambda: WaitGroup(), 2 * WORD_SIZE),
    Cond: (lambda: Cond(Mutex()), 3 * WORD_SIZE),
    Once: (lambda: Once(), WORD_SIZE),
    Pool: (lambda: Pool(), 4 * WORD_SIZE),
    Ticker: (lambda: Ticker(Channel(1), 5), 3 * WORD_SIZE),
    Timer: (lambda: Timer(Channel(1)), 2 * WORD_SIZE),
    GlobalRoot: (lambda: GlobalRoot(), 0),
    CircuitBreaker: (lambda: CircuitBreaker(), 6 * WORD_SIZE),
}


def _heap_classes():
    """Every concrete ``HeapObject`` subclass the three packages define."""
    for pkg in (repro.runtime, repro.gc, repro.service):
        for info in pkgutil.iter_modules(pkg.__path__, pkg.__name__ + "."):
            mod = importlib.import_module(info.name)
            for cls in vars(mod).values():
                if (inspect.isclass(cls) and cls.__module__ == info.name
                        and issubclass(cls, HeapObject)
                        and cls is not HeapObject):
                    yield cls


def test_every_heap_class_has_a_build():
    assert set(_heap_classes()) == set(BUILDS)


@pytest.mark.parametrize("cls", list(BUILDS), ids=lambda c: c.__name__)
def test_a_fresh_object_is_unallocated_and_unmarked(cls):
    build, size = BUILDS[cls]
    obj = build()
    assert type(obj) is cls
    assert (obj.addr, obj.size, obj._mark_epoch) == (0, size, -1)
    assert obj._heap is None and obj._finalizer is None
    assert type(obj).gc_ages_on_cycle is (cls is Pool)


#: Host bytes one fresh channel may hold, its buffer and both wait queues
#: included: plain lists fit, three empty ``collections.deque`` (about
#: 2 400 bytes with their blocks) do not.
CHANNEL_BYTES_MAX = 600


@pytest.mark.parametrize("capacity", [0, 1])
def test_a_fresh_channel_costs_at_most_a_few_hundred_bytes(capacity):
    Channel(capacity)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        chans = [Channel(capacity) for _ in range(1000)]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown / len(chans) <= CHANNEL_BYTES_MAX


def test_an_idle_goroutine_holds_no_empty_list():
    # Go's g keeps its waiting sudogs and its defer chain as nil
    # pointers until a park or a defer needs them.
    assert (Goroutine(1).sudogs, Goroutine(1).defers) == ((), ())
    rt = Runtime(procs=1, seed=0)
    seen = {}

    def waiter(ch):
        yield Recv(ch)
        yield Sleep(MICROSECOND)

    def leaker(ch):
        yield Defer(lambda: None)
        yield Send(ch, 1)  # nobody receives: condemned and reclaimed

    def finisher():
        yield Defer(lambda: None)

    def main():
        ch = yield MakeChan(0)
        yield Go(waiter, ch)
        yield Go(leaker, (yield MakeChan(0)))
        yield Go(finisher)
        yield Sleep(MICROSECOND)
        gs = {g.fn_name: g for g in rt.sched.allgs}
        seen["parked"] = len(gs["waiter"].sudogs), len(gs["leaker"].defers)
        yield Send(ch, "wake")
        seen["woken"] = gs["waiter"].sudogs, gs["waiter"].defers
        seen["finished"] = gs["finisher"].sudogs, gs["finisher"].defers

    rt.spawn_main(main)
    rt.run(until_ns=MILLISECOND)
    rt.gc()
    rt.gc()
    assert seen == {"parked": (1, 1), "woken": ((), ()),
                    "finished": ((), ())}
    (report,) = rt.reports
    (reclaimed,) = [g for g in rt.sched.allgs if g.goid == report.goid]
    assert rt.collector.stats.total_goroutines_reclaimed == 1
    assert (reclaimed.sudogs, reclaimed.defers) == ((), ())


#: Host bytes a fleet may hold at its traced peak per user it serves,
#: ``FleetConfig(shards=1, users=200, min_requests=8, max_requests=12,
#: seed=7)``: 7 247 with each user's session script built whole when its
#: client starts and an empty list in every goroutine's idle sudog and
#: defer slots; 6 073 drawing each request as it is sent and holding
#: ``()`` in those slots (CPython 3.11.7; 7 205 → 6 030 on 3.12.1).
#: Sessions of 8-12 requests make the scripts' share show: at the
#: default 2-6 the two differ by less than the headroom.  The bound
#: keeps the relative headroom of ``TRACE_RECORD_BYTES_MAX`` (x 1.144).
FLEET_BYTES_PER_USER_MAX = 6940


def test_a_fleet_holds_what_its_live_users_hold():
    # A small fleet first: what the first run caches (sites, interned
    # names, imports) is not the users' to pay for.
    run_fleet(FleetConfig(shards=1, users=8, seed=7), mode="sequential")
    cfg = FleetConfig(shards=1, users=200, min_requests=8, max_requests=12,
                      seed=7)
    gc.collect()
    tracemalloc.start()
    try:
        result = run_fleet(cfg, mode="sequential")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.clean and result.total_requests >= 8 * cfg.users
    assert peak / cfg.users <= FLEET_BYTES_PER_USER_MAX


#: Host bytes a full tracer may retain per buffered record, fed the event
#: mix of the observed production service: 153 with one tuple per event
#: (object and GC headers, a ``render`` pointer and ``pid`` on each),
#: 99.2 with flat blocks, 61.2 with per-block time deltas and a flat
#: channel park (CPython 3.11.7 and 3.12.1 alike), 52.3 with a slice's
#: processor and mnemonic in its shape code and no empty ``extra`` slot
#: on a channel operation (CPython 3.11.7).  The bound keeps the same
#: relative headroom (x 1.14).
TRACE_RECORD_BYTES_MAX = 60


def _body():
    yield


#: Clock steps before each of a request's seven instruction slices.
_INSTR_STEPS = (0, 211, 0, 97, 0, 211, 4_096)


def _serve_requests(tracer, clock, n):
    """What one request of ``svc-prod-observed`` traces, ``n`` times: a
    handler goroutine and its reply channel are made, it runs seven
    instruction slices, parks and is woken twice, sends or receives once
    and ends.  The clock steps as that service's does between records:
    7 of the 15 at the time of the record before, 6 within 256 ns of
    it, 2 further.  Yields the records held after each request."""
    ch = Channel(1, label="reply")
    ch.addr, ch.make_site = 0x4000, "svc.go:12"
    gs = []
    for i in range(64):
        g = Goroutine(i + 2)
        g.bind(_body(), "svc.go:40", parent_goid=1, name=f"handler-{i}",
               fn_name="handler")
        g.blocked_on = (ch,)
        gs.append(g)
    for i in range(n):
        g = gs[i % len(gs)]
        clock.now += 1_117
        tracer.on_create(g)
        tracer.on_chan_op(ev.CHAN_MAKE, g, ch)
        for k, step in enumerate(_INSTR_STEPS):
            clock.now += step
            tracer.on_instr(k & 1, g, "send", 211)
        for _ in range(2):
            tracer.on_park(g, WaitReason.CHAN_RECEIVE)
            clock.now += 97
            tracer.on_wake(g)
        tracer.on_chan_op(ev.CHAN_SEND if i & 1 else ev.CHAN_RECV, g, ch,
                          partner=3)
        clock.now += 13
        tracer.on_finish(g)
        yield tracer._held()


def test_a_buffered_trace_record_costs_its_fields():
    capacity = 100_000
    assert BLOCK <= capacity
    clock = Clock()
    clock.now = 1 << 31
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracer = ExecutionTracer(clock, capacity)
        held = max(_serve_requests(tracer, clock,
                                   (capacity + 3 * BLOCK) // 15))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tracer) == capacity and tracer.dropped > 2 * BLOCK
    assert held <= capacity + BLOCK
    assert grown / len(tracer) <= TRACE_RECORD_BYTES_MAX


#: Host bytes one why-leaked record may keep once its runtime is gone,
#: over the leaky registry programs at procs 2, seeds 0-2 (364 records):
#: 2 254 with every dict and evidence string rendered at detection; 651
#: holding one tuple of facts per ``B(g)`` object and no empty container
#: (642.7 under CPython 3.12.1); 591.8 sharing the goroutine's name
#: string and rendering ``glabel`` on read.  The bound keeps the same
#: 49 bytes of headroom.
PROVENANCE_RECORD_BYTES_MAX = 640


def _leaky_registry_provenance(seeds):
    """Every provenance record of the registry's leaky programs at procs
    2, each runtime shut down and dropped after its run."""
    records = []
    for seed in seeds:
        for bench in all_benchmarks():
            rts = []
            run_microbenchmark(bench, procs=2, seed=seed, rt_hook=rts.append)
            records.extend(r.provenance for r in rts[0].reports)
            rts[0].shutdown()
    return records


def test_a_why_leaked_record_keeps_facts_not_renderings():
    # One pass first: what the registry's first runs cache (sites,
    # interned names) is not the records' to pay for.
    _leaky_registry_provenance((0,))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = _leaky_registry_provenance((0, 1, 2))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(records) > 300 and None not in records
    assert grown / len(records) <= PROVENANCE_RECORD_BYTES_MAX


def test_only_pools_join_the_aging_registry():
    heap = Heap()
    objs = [heap.allocate(build()) for cls, (build, _) in BUILDS.items()
            if cls is not GlobalRoot]
    assert [type(o) for o in heap.gc_aged_objects()] == [Pool]
    assert all(o._heap is heap for o in objs)


def test_allocate_spaces_addresses_by_size_with_a_floor():
    heap = Heap()
    a, b, c = (heap.allocate(x) for x in (Blob(40), Blob(0), Blob(8)))
    assert (b.addr - a.addr, c.addr - b.addr) == (40, 16)


def test_a_struct_does_not_alias_the_callers_dict():
    d = {"a": 1}
    s = Struct(**d)
    s["a"] = 2
    d["b"] = 3
    assert d == {"a": 1, "b": 3}
    assert s.fields == {"a": 2}


def test_slices_and_maps_copy_the_callers_container():
    items, entries = [1], {1: 2}
    sl, m = Slice(items), GoMap(entries)
    sl.append(3)
    m[4] = 5
    assert (items, entries) == ([1], {1: 2})


def _incremental_rt():
    return Runtime(procs=2, seed=7, config=GolfConfig(gc_mode="incremental"))


def _arm(rt):
    rt.collector._begin_cycle("test")
    assert rt.collector.phase is GCPhase.MARKING
    assert rt.heap.barrier_active


@pytest.mark.parametrize("armed", [False, True])
def test_slice_append_books_growth_as_resize_does(armed):
    rt = _incremental_rt()
    heap = rt.heap
    fast, ref = heap.allocate(Slice([1])), heap.allocate(Slice([1]))
    target = heap.allocate(Blob(8))
    if armed:
        _arm(rt)
    for value in (2, target, None):
        before = heap.live_bytes
        fast.append(value)
        mid = heap.live_bytes
        ref._barrier(value)
        ref.items.append(value)
        ref.resize(ref.size + WORD_SIZE)
        assert fast.size == ref.size
        assert mid - before == heap.live_bytes - mid == WORD_SIZE
    assert fast.items == ref.items
    assert heap.is_marked(target) is armed
    assert rt.check_invariants() == []


def test_an_unallocated_slice_grows_without_a_heap():
    sl = Slice()
    sl.append(Box(1))
    assert sl.size == 4 * WORD_SIZE and sl._heap is None


def test_stores_reach_the_barrier_only_while_it_is_armed():
    rt = _incremental_rt()
    heap = rt.heap
    calls = []
    real = heap.write_barrier

    def counting(src, ref):
        calls.append((src, ref))
        real(src, ref)

    heap.write_barrier = counting
    box, st = heap.allocate(Box()), heap.allocate(Struct(f=None))
    sl, m = heap.allocate(Slice()), heap.allocate(GoMap())
    targets = [heap.allocate(Blob(8)) for _ in range(5)]

    def store_all():
        box.value = targets[0]
        st["f"] = targets[1]
        sl.append(targets[2])
        m[targets[3]] = targets[4]

    store_all()
    assert calls == []
    _arm(rt)
    store_all()
    assert [src for src, _ in calls] == [box, st, sl, m, m]
    assert all(heap.is_marked(t) for t in targets)
    heap.disable_barrier()
    calls.clear()
    store_all()
    assert calls == []


def test_a_direct_write_barrier_call_is_a_no_op_while_disarmed():
    heap = Heap()
    target = heap.allocate(Blob(8))
    heap.write_barrier(heap.globals, target)
    assert not heap.is_marked(target) and heap.barrier_shades == 0
