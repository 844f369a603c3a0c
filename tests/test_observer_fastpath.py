"""Observers record by value and render on read — the contract.

The execution tracer pushes flat by-value records and renders
``detail`` / ``args`` only when something reads; the telemetry hub's
hot callbacks update children bound once; histograms pick their bucket
by bisection.  Each is pinned here against the code it replaced, kept
below verbatim as the reference: the eager tracer (with the list-backed
ring and ``describe_object`` it used), the per-goroutine three-pass
trace evidence of the provenance engine, and the linear bucket scan.
"""

from __future__ import annotations

import enum
import gc
import math
import sys
from types import SimpleNamespace
from typing import Any, Dict, Iterator, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.equivalence import corpus
from repro.microbench.harness import run_microbenchmark
from repro.runtime.channel import Channel
from repro.runtime.clock import Clock
from repro.runtime.goroutine import Goroutine
from repro.runtime.objects import HeapObject
from repro.runtime.waitreason import WaitReason
from repro.service.controlled import ControlledConfig, run_controlled
from repro.service.production import ProductionConfig, run_production
from repro.telemetry import TelemetryHub
from repro.telemetry.metrics import (
    DURATION_BUCKETS_NS,
    SIZE_BUCKETS,
    HistogramChild,
)
from repro.trace import events as ev
from repro.trace import provenance
from repro.trace.chrome import export_chrome_trace
from repro.trace.events import TraceEvent
from repro.trace.tracer import ExecutionTracer

#: Python-level calls the observers may add per virtual instruction of
#: the production service (9.7; the eager observers added 1.52 x bare).
#: It is the old "observed / bare <= 1.75" restated over a denominator
#: the observers do not share — 0.75 x the 17.04 bare calls per
#: instruction of the loop it was set against — so that a faster bare
#: run loop no longer reads as slower observers.
ADDED_CALLS_PER_VINSTR = 12.8

#: Bare Python-level calls per virtual instruction of the same run
#: (17.04 with three processor walks per event, 14.3 with one, 11.6
#: with the run-queue pick drawn in place of ``randrange``'s two frames).
BARE_CALLS_PER_VINSTR = 12.5


# ---------------------------------------------------------------------------
# The reference: the eager observers, verbatim
# ---------------------------------------------------------------------------


class ReferenceRing:
    """A fixed-capacity drop-oldest buffer with a dropped counter."""

    __slots__ = ("capacity", "_items", "_start", "dropped")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("ring buffer capacity must be positive")
        self.capacity = capacity
        self._items: List = []
        self._start = 0
        self.dropped = 0

    def append(self, item) -> None:
        if len(self._items) < self.capacity:
            self._items.append(item)
            return
        self._items[self._start] = item
        self._start = (self._start + 1) % self.capacity
        self.dropped += 1

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator:
        n = len(self._items)
        for i in range(n):
            yield self._items[(self._start + i) % n]

    def last(self, n: int) -> List:
        items = list(self)
        return items[-n:] if n < len(items) else items


def reference_describe_object(obj: Any) -> Dict[str, Any]:
    kind = getattr(obj, "kind", "object")
    addr = getattr(obj, "addr", 0)
    if addr == 0 and getattr(obj, "size", None) == 0 and kind == "object":
        return {"kind": "epsilon", "addr": 0}
    desc: Dict[str, Any] = {"kind": kind, "addr": addr}
    label = getattr(obj, "label", "")
    if label:
        desc["label"] = label
    if kind == "chan":
        desc.update({
            "capacity": obj.capacity,
            "buffered": len(obj.buffer),
            "closed": obj.closed,
            "waiting_senders": obj.waiting_senders(),
            "waiting_receivers": obj.waiting_receivers(),
        })
        if obj.make_site:
            desc["make_site"] = obj.make_site
    return desc


class EagerTracer:
    """The tracer that rendered every event at emit time."""

    def __init__(self, clock: Clock, capacity: int = 100_000):
        self.clock = clock
        self.capacity = capacity
        self._ring = ReferenceRing(capacity)

    def emit(self, kind: str, goid: int = 0, detail: str = "",
             pid: int = -1, args: Optional[Dict[str, Any]] = None) -> None:
        self._ring.append(
            TraceEvent(self.clock.now, kind, goid, detail, pid, args))

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._ring)

    @property
    def dropped(self) -> int:
        return self._ring.dropped

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self._ring if e.kind == kind]

    def for_goroutine(self, goid: int) -> List[TraceEvent]:
        return [e for e in self._ring if e.goid == goid]

    def format(self, limit: Optional[int] = None) -> str:
        events = list(self._ring) if limit is None else self._ring.last(limit)
        lines = [event.format() for event in events]
        if self.dropped:
            lines.append(f"... {self.dropped} events dropped (capacity)")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._ring)

    def on_create(self, g) -> None:
        self.emit(ev.GO_CREATE, g.goid, f"{g.name} at {g.go_site}",
                  args={"label": g.trace_label, "parent": g.parent_goid,
                        "site": g.go_site})

    def on_park(self, g, reason) -> None:
        self.emit(ev.GO_PARK, g.goid, reason.value,
                  args={"reason": reason.value,
                        "blocked_on": [reference_describe_object(o)
                                       for o in g.blocked_on]})

    def on_wake(self, g) -> None:
        self.emit(ev.GO_WAKE, g.goid)

    def on_finish(self, g) -> None:
        self.emit(ev.GO_END, g.goid)

    def on_reclaim(self, g) -> None:
        self.emit(ev.GO_RECLAIM, g.goid)

    def on_panic(self, g, message: str) -> None:
        self.emit(ev.GO_PANIC, g.goid, message)

    def on_instr(self, pid: int, g, mnemonic: str, cost_ns: int) -> None:
        self.emit(ev.INSTR, g.goid, mnemonic, pid=pid,
                  args={"op": mnemonic, "dur": cost_ns,
                        "label": g.trace_label})

    def on_chan_op(self, kind: str, g, ch, partner: int = 0,
                   extra: Optional[Dict[str, Any]] = None) -> None:
        args: Dict[str, Any] = {"chan": ch.addr, "partner": partner}
        if ch.label:
            args["chan_label"] = ch.label
        if extra:
            args.update(extra)
        detail = f"chan 0x{ch.addr:x}"
        if partner:
            detail += f" partner g{partner}"
        self.emit(kind, g.goid, detail, args=args)

    def on_select(self, g, case_index: int, ch, op: str,
                  partner: int = 0) -> None:
        args: Dict[str, Any] = {"case": case_index, "op": op,
                                "partner": partner}
        if ch is not None:
            args["chan"] = ch.addr
            detail = f"case {case_index} {op} chan 0x{ch.addr:x}"
        else:
            detail = "default"
        if partner:
            detail += f" partner g{partner}"
        self.emit(ev.SELECT_RESOLVE, g.goid, detail, args=args)

    def on_sema(self, kind: str, g, target, blocked: bool = False) -> None:
        tkind = getattr(target, "kind", "sema")
        addr = getattr(target, "addr", 0)
        self.emit(kind, g.goid, f"{tkind} 0x{addr:x}",
                  args={"target": addr, "target_kind": tkind,
                        "blocked": blocked})

    def on_sema_queue(self, key: int, g) -> None:
        self.emit(ev.SEMA_ACQUIRE, g.goid, f"blocked key=0x{key:x}",
                  args={"key": key, "blocked": True})

    def on_sema_dequeue(self, key: int, g) -> None:
        self.emit(ev.SEMA_ACQUIRE, g.goid, f"granted key=0x{key:x}",
                  args={"key": key, "granted": True})

    def on_gc_phase(self, phase: str, cycle: int) -> None:
        self.emit(ev.GC_PHASE, 0, f"#{cycle} {phase}",
                  args={"phase": phase, "cycle": cycle})

    def on_gc_cycle(self, cs) -> None:
        self.emit(ev.GC_CYCLE, 0,
                  f"#{cs.cycle} {cs.mode} iters={cs.mark_iterations} "
                  f"work={cs.mark_work_units} swept={cs.swept_bytes}B "
                  f"deadlocks={cs.deadlocks_detected}",
                  args={"cycle": cs.cycle, "mode": cs.mode,
                        "deadlocks": cs.deadlocks_detected,
                        "reclaimed": cs.goroutines_reclaimed})

    def on_shade(self, src: Any, obj) -> None:
        src_kind = getattr(src, "kind", type(src).__name__)
        self.emit(ev.BARRIER_SHADE, 0,
                  f"{obj.kind} 0x{obj.addr:x} via {src_kind}",
                  args={"obj": obj.addr, "obj_kind": obj.kind,
                        "src_kind": src_kind})

    def on_leak(self, report) -> None:
        self.emit(ev.DEADLOCK, report.goid,
                  f"{report.wait_reason} at {report.block_site}",
                  args={"label": report.glabel, "cycle": report.gc_cycle,
                        "wait_reason": report.wait_reason})

    def on_fault(self, kind: str, goid: int, detail: str) -> None:
        self.emit(ev.FAULT_INJECT, goid, f"{kind}: {detail}",
                  args={"fault": kind})


def reference_trace_evidence(rec, g, condemned_goids, tracer) -> None:
    """Trace-derived evidence: the minimal event slice and abandoners."""
    history = tracer.for_goroutine(g.goid)
    last_park = None
    for i, e in enumerate(history):
        if e.kind == ev.GO_PARK:
            last_park = i
    if last_park is not None:
        window = history[max(0, last_park + 1 - provenance.EVENT_SLICE_LIMIT)
                         :last_park + 1]
        rec.event_slice = [
            {"t_ns": e.t_ns, "kind": e.kind, "detail": e.detail}
            for e in window
        ]
    addrs = {d["addr"] for d in rec.blocked_op if d.get("addr")}
    if not addrs:
        return
    abandoners: Dict[int, str] = {}
    for e in tracer.events:
        if e.goid == g.goid or e.goid in condemned_goids or e.goid == 0:
            continue
        if not e.args:
            continue
        if e.kind == ev.GO_PARK:
            if any(d.get("addr") in addrs
                   for d in e.args.get("blocked_on", ())):
                abandoners[e.goid] = "once waited here, then proceeded"
        elif e.args.get("chan") in addrs:
            abandoners.setdefault(e.goid, f"last touched it via {e.kind}")
    label = {e.goid: (e.args or {}).get("label", f"g{e.goid}")
             for e in tracer.of_kind(ev.GO_CREATE)}
    rec.abandoned_by = [
        f"{label.get(goid, f'g{goid}')}: {why}"
        for goid, why in sorted(abandoners.items())
    ]


def reference_observe(child: HistogramChild, value: float) -> None:
    child.sum += value
    child.count += 1
    for i, bound in enumerate(child.buckets):
        if value <= bound:
            child.counts[i] += 1
            return
    child.counts[-1] += 1


def _reference_evidence(*args) -> None:
    """The reference behind the engine's signature: per call for the
    whole condemned set, or (before the single pass) per goroutine."""
    if len(args) == 4:
        return reference_trace_evidence(*args)
    records, tracer = args
    for goid, rec in records.items():
        reference_trace_evidence(rec, SimpleNamespace(goid=goid),
                                 set(records), tracer)


# ---------------------------------------------------------------------------
# Running a program under either tracer
# ---------------------------------------------------------------------------

TRACERS = {"eager": EagerTracer, "by-value": ExecutionTracer}
CAPACITIES = {"default": 100_000, "overflowing": 64}


def install(rt, tracer) -> None:
    """What ``Runtime.enable_tracing`` does, for any tracer object."""
    rt.sched.tracer = tracer
    rt.sched.semtable.tracer = tracer
    rt.heap.trace_shade_hook = tracer.on_shade


def surface(rt) -> Dict[str, Any]:
    """Everything a reader can get out of a finished traced run."""
    tracer = rt.sched.tracer
    return {
        "events": [e.as_dict() for e in tracer.events],
        "format": tracer.format(),
        "format_tail": tracer.format(limit=7),
        "parks": [e.as_dict() for e in tracer.of_kind(ev.GO_PARK)],
        "main": [e.as_dict() for e in tracer.for_goroutine(1)],
        "dropped": tracer.dropped,
        "len": len(tracer),
        "chrome": export_chrome_trace(tracer),
        "provenance": [r.provenance.as_dict() for r in rt.reports],
    }


def traced_program(program, procs: int, tracer_cls, capacity: int):
    captured = []

    def hook(rt) -> None:
        captured.append(rt)
        install(rt, tracer_cls(rt.clock, capacity))

    run_microbenchmark(program.bench, procs=procs, seed=7,
                       use_fixed=program.fixed, rt_hook=hook)
    return captured[0]


class TracingHub(TelemetryHub):
    """A hub whose ``attach`` installs a tracer (the services build
    their runtime internally and accept only a hub)."""

    def __init__(self, tracer_cls, capacity: int):
        super().__init__()
        self.make_tracer = lambda rt: tracer_cls(rt.clock, capacity)
        self.rt = None

    def attach(self, rt):
        super().attach(rt)
        if self.rt is None:
            self.rt = rt
            install(rt, self.make_tracer(rt))
        return self


SERVICES = {
    "production": lambda hub: run_production(
        ProductionConfig(hours=0.02, seed=7), telemetry=hub),
    "controlled": lambda hub: run_controlled(
        ControlledConfig(duration_s=2, leak_rate=0.1, seed=7),
        telemetry=hub),
}


@pytest.fixture
def eager_provenance(monkeypatch):
    """Swap the engine's trace evidence for the reference (the eager
    tracer has no records to scan); returns the switch-back."""
    monkeypatch.setattr(provenance, "_trace_evidence", _reference_evidence)
    return monkeypatch.undo


def assert_same_surface(where: str, want: Dict[str, Any],
                        got: Dict[str, Any]) -> None:
    for key in want:
        assert got[key] == want[key], f"{where}: {key} differs"


# ---------------------------------------------------------------------------
# (a) the differential: by-value ≡ eager on everything a reader can see
# ---------------------------------------------------------------------------


class TestEagerDifferential:
    @pytest.mark.parametrize("capacity", list(CAPACITIES))
    @pytest.mark.parametrize("procs", [1, 4])
    def test_corpus(self, procs, capacity, eager_provenance):
        cap = CAPACITIES[capacity]
        programs = corpus()
        assert len(programs) == 125
        want = [surface(traced_program(p, procs, EagerTracer, cap))
                for p in programs]
        eager_provenance()
        events = reports = dropped = 0
        for program, reference in zip(programs, want):
            got = surface(traced_program(program, procs, ExecutionTracer,
                                         cap))
            assert_same_surface(f"{program.name} procs={procs}", reference,
                                got)
            events += got["len"]
            dropped += got["dropped"]
            reports += len(got["provenance"])
        # Non-vacuity: events flowed, leaks were explained, and the
        # small ring really overflowed.
        assert events > 1000 and reports > 50
        assert (dropped > 0) == (capacity == "overflowing")

    @pytest.mark.parametrize("capacity", list(CAPACITIES))
    @pytest.mark.parametrize("service", list(SERVICES))
    def test_services(self, service, capacity, eager_provenance):
        cap = CAPACITIES[capacity]
        eager_hub = TracingHub(EagerTracer, cap)
        SERVICES[service](eager_hub)
        want = surface(eager_hub.rt)
        eager_provenance()
        hub = TracingHub(ExecutionTracer, cap)
        SERVICES[service](hub)
        got = surface(hub.rt)
        assert_same_surface(service, want, got)
        assert got["len"] == min(cap, got["len"] + got["dropped"]) > 0
        assert hub.render_prometheus() == eager_hub.render_prometheus()
        assert hub.recorder.as_dict() == eager_hub.recorder.as_dict()

    def test_reference_really_is_eager(self):
        tracer = EagerTracer(Clock())
        g = Goroutine(3)
        tracer.on_instr(0, g, "send", 10)
        first, second = tracer.events, tracer.events
        assert first[0] is second[0] and isinstance(first[0].args, dict)


# ---------------------------------------------------------------------------
# (b) capture is by value, at event time
# ---------------------------------------------------------------------------


def _body():
    yield


def park_then_move_on(tracer):
    """Trace a create / instr / park / chan-op on live objects, then
    change every one of them the way the runtime does afterwards."""
    ch = Channel(2, label="jobs")
    ch.addr = 0x1000
    ch.make_site = "svc.go:12"
    ch.buffer.append("queued")
    g = Goroutine(7)
    g.bind(_body(), "svc.go:40", parent_goid=1, name="worker-7",
           fn_name="worker")
    tracer.on_create(g)
    tracer.on_instr(0, g, "send", 250)
    g.blocked_on = (ch,)
    tracer.on_park(g, WaitReason.CHAN_SEND)
    extra = {"woken": 1}
    tracer.on_chan_op(ev.CHAN_CLOSE, g, ch, partner=4, extra=extra)
    # The channel drains, fills and closes; the descriptor is recycled
    # for another go statement (Scheduler.spawn on a gfree descriptor).
    ch.buffer.clear()
    ch.buffer.extend(["a", "b"])
    ch.closed = True
    ch.label = "relabelled"
    extra["woken"] = 99
    g.goid = 99
    g.bind(_body(), "other.go:1", parent_goid=98, name="janitor-99",
           fn_name="janitor")


@pytest.mark.parametrize("tracer_cls", list(TRACERS.values()),
                         ids=list(TRACERS))
def test_events_read_back_as_they_were_at_event_time(tracer_cls):
    tracer = tracer_cls(Clock())
    park_then_move_on(tracer)
    create, instr, park, close = tracer.events
    assert create.detail == "worker-7 at svc.go:40"
    assert create.args == {"label": "worker#7", "parent": 1,
                           "site": "svc.go:40"}
    assert (instr.goid, instr.args["label"]) == (7, "worker#7")
    assert park.args == {"reason": "chan send", "blocked_on": [{
        "kind": "chan", "addr": 0x1000, "label": "jobs", "capacity": 2,
        "buffered": 1, "closed": False, "waiting_senders": 0,
        "waiting_receivers": 0, "make_site": "svc.go:12"}]}
    assert close.args == {"chan": 0x1000, "partner": 4,
                          "chan_label": "jobs", "woken": 1}
    assert close.detail == "chan 0x1000 partner g4"


_VALUES = (int, str, bool, float, type(None))


def _holds_only_values(value) -> bool:
    if isinstance(value, (tuple, list)):
        return all(_holds_only_values(v) for v in value)
    if isinstance(value, dict):
        return all(isinstance(k, str) and _holds_only_values(v)
                   for k, v in value.items())
    assert not isinstance(value, HeapObject), value
    return isinstance(value, _VALUES + (enum.Enum,))


def test_no_record_holds_a_runtime_object():
    records = 0
    for program in corpus():
        tracer = traced_program(program, 4, ExecutionTracer,
                                100_000).sched.tracer
        for t_ns, kind, goid, pid, render, *payload in tracer.records:
            assert type(t_ns) is type(goid) is type(pid) is int
            assert type(kind) is str and callable(render)
            assert _holds_only_values(payload), (kind, payload)
            records += 1
    assert records > 10_000


# ---------------------------------------------------------------------------
# (c) reads are repeatable and isolated
# ---------------------------------------------------------------------------


def test_reads_render_fresh_equal_events():
    tracer = ExecutionTracer(Clock())
    park_then_move_on(tracer)
    tracer.emit("watchdog-stall", 0, "wedged", args={"goids": 2})
    first = tracer.events
    again = tracer.events
    assert [e.as_dict() for e in first] == [e.as_dict() for e in again]
    assert all(a is not b for a, b in zip(first, again))
    assert tracer.format() == tracer.format()
    # Vandalise everything the first read handed out.
    for e in first:
        if e.args:
            for value in e.args.values():
                if isinstance(value, list):
                    for desc in value:
                        desc.clear()
                    value.clear()
            e.args.clear()
        e.detail = "overwritten"
    assert [e.as_dict() for e in tracer.events] == \
        [e.as_dict() for e in again]
    assert [e.as_dict() for e in tracer.of_kind(ev.GO_PARK)] == \
        [again[2].as_dict()]
    assert [e.as_dict() for e in tracer.for_goroutine(7)] == \
        [e.as_dict() for e in again[:4]]


def test_render_preserves_key_order():
    tracer, eager = ExecutionTracer(Clock()), EagerTracer(Clock())
    park_then_move_on(tracer)
    park_then_move_on(eager)
    for got, want in zip(tracer.events, eager.events):
        assert list(got.as_dict()) == list(want.as_dict())
        assert list(got.args) == list(want.args)
        for g, w in zip(got.args.get("blocked_on", ()),
                        want.args.get("blocked_on", ())):
            assert list(g) == list(w)


# ---------------------------------------------------------------------------
# (d) histogram buckets: bisection ≡ the linear scan
# ---------------------------------------------------------------------------

_observations = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10, max_value=2_000_000_000),
    st.sampled_from(DURATION_BUCKETS_NS + SIZE_BUCKETS),
)


@pytest.mark.parametrize("buckets", [DURATION_BUCKETS_NS, SIZE_BUCKETS,
                                     (10,), (1.5, 1.5, 7)])
@settings(max_examples=200, deadline=None)
@given(values=st.lists(_observations, max_size=30))
def test_observe_picks_the_linear_scans_bucket(buckets, values):
    fast, slow = HistogramChild(buckets), HistogramChild(buckets)
    for value in values:
        fast.observe(value)
        reference_observe(slow, value)
    assert fast.counts == slow.counts
    assert fast.count == slow.count
    assert repr(fast.sum) == repr(slow.sum)


def test_observe_edges():
    child = HistogramChild((10, 100))
    for value in (10, 10.0, 11, 100, 101, math.inf, -math.inf, math.nan):
        child.observe(value)
    assert child.counts == [3, 2, 3]


# ---------------------------------------------------------------------------
# (e) the hub's bound children are the registry's children
# ---------------------------------------------------------------------------


def test_bound_children_are_the_registrys():
    hub, ref = TelemetryHub(), TelemetryHub()
    g = SimpleNamespace(goid=5)
    for depth in (0, 1, 3, 17, 4096, 5000):
        hub.on_context_switch(depth)
        ref.ctx_switches.inc()
        ref.runq_depth.set(depth)
        ref.runq_depth_hist.observe(depth)
    for reason in (WaitReason.CHAN_SEND, WaitReason.SLEEP,
                   WaitReason.CHAN_SEND):
        hub.on_park(g, reason)
        ref.parks.labels(reason.value).inc()
    hub.on_spawn(g)
    ref.spawned.inc()
    hub.on_wake(g)
    ref.wakes.inc()
    hub.on_finish(g)
    ref.finished.inc()
    assert hub.registry.snapshot() == ref.registry.snapshot()
    assert hub.registry.render_prometheus() == \
        ref.registry.render_prometheus()
    assert hub.ctx_switches.value == 6 and hub.runq_depth.value == 5000
    for name in ("repro_sched_context_switches_total",
                 "repro_sched_runq_depth", "repro_sched_runq_depth_sample",
                 "repro_sched_goroutines_spawned_total",
                 "repro_sched_goroutines_finished_total",
                 "repro_sched_wake_total"):
        ((_, child),) = hub.registry.get(name).series()
        assert any(child is bound for bound in vars(hub).values()), name


# ---------------------------------------------------------------------------
# The observer budget: an exact count, not a wall-clock ratio
# ---------------------------------------------------------------------------


def _python_calls(fn) -> int:
    """Count ``call`` events while ``fn`` runs, cyclic collector off.

    Closing a suspended generator resumes it, which is a ``call``; a
    dead ``Runtime`` is a reference cycle holding its parked goroutine
    bodies, so *when* those are closed is the cyclic collector's choice.
    Collect first and keep it off for the window: what is left is the
    refcount path, which is deterministic.
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


class _FullyObservedHub(TelemetryHub):
    """Hub + tracer + 1000 ms TSDB scraper, through the public switches."""

    def __init__(self):
        super().__init__()
        self.enable_tsdb(scrape_interval_ms=1000.0)
        self.scraped = None

    def attach(self, rt):
        fresh = rt.sched.telemetry is not self
        super().attach(rt)
        if fresh:
            rt.enable_tracing()
            rt.start_metrics_scrape(self)
            self.scraped = rt
        return self


def test_observers_stay_within_the_call_budget():
    def config():
        return ProductionConfig(hours=0.02, seed=7)

    bare = _python_calls(lambda: run_production(config()))
    hub = _FullyObservedHub()
    observed = _python_calls(lambda: run_production(config(),
                                                    telemetry=hub))
    assert hub.scraped.metrics_scraper.scrapes > 0
    assert len(hub.scraped.tracer) > 10_000
    # Observers are passive, so both runs executed this many.
    vinstr = hub.scraped.sched.instructions_executed
    assert (observed - bare) / vinstr <= ADDED_CALLS_PER_VINSTR, (
        observed, bare, vinstr, f"observed / bare = {observed / bare:.3f}")
    assert bare / vinstr <= BARE_CALLS_PER_VINSTR, (bare, vinstr)
    # Exact and repeatable once the cyclic collector cannot run inside
    # the window (see _python_calls): garbage an earlier test left
    # behind used to add calls here one tier-1 run in five.
    assert _python_calls(lambda: run_production(config())) == bare
