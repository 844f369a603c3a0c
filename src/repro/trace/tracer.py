"""The execution tracer: a low-overhead structured event stream.

:class:`ExecutionTracer` is the object ``rt.enable_tracing()`` installs
on the scheduler (``sched.tracer``), the semaphore table, and the heap's
shade hook.  Every instrumentation site in the runtime guards on
``tracer is not None``, so the disabled path costs one attribute check —
the same discipline the telemetry hub uses.

Capture is **by value, rendered on read**.  A hook pushes one flat
tuple ``(t_ns, kind, goid, pid, render, *payload)`` onto the telemetry
:class:`RingBuffer` (drop-oldest; ``dropped`` counts evictions, which
the ``repro run`` report prints) and does nothing else: most events are
evicted unread.  The payload holds only immutable values copied at event
time — names, addresses, counts,
:func:`~repro.trace.events.snapshot_object` tuples — never a goroutine,
channel or other runtime-owned object: descriptors are recycled and
channel state moves on after the event, and a ring of references would
pin every dead object graph it names.  ``render(record)`` is a pure
function returning the event's ``(detail, args)``; every read
(``events`` / ``of_kind`` / ``for_goroutine`` / ``format``) renders
fresh :class:`TraceEvent` objects, so two reads are equal and neither
can disturb the other.  ``emit`` records an already-rendered event (the
form the cold callers use).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.clock import Clock
from repro.telemetry.recorder import RingBuffer
from repro.trace import events as ev
from repro.trace.events import TraceEvent, describe_snapshot, snapshot_object

#: A trace record: ``(t_ns, kind, goid, pid, render, *payload)``.
Record = Tuple[Any, ...]
#: What a ``render`` function returns: ``(detail, args)``.
Rendered = Tuple[str, Optional[Dict[str, Any]]]


def _render_bare(r: Record) -> Rendered:
    """No payload: a bare lifecycle event."""
    return "", None


def _rendered(r: Record) -> Rendered:
    """``emit`` form — payload ``(detail, args)``, rendered by the
    caller; reads still get their own ``args`` dict."""
    return r[5], (None if r[6] is None else dict(r[6]))


def _render_create(r: Record) -> Rendered:
    """Payload ``(name, label name, parent goid, go site)``."""
    return (f"{r[5]} at {r[8]}",
            {"label": f"{r[6]}#{r[2]}", "parent": r[7], "site": r[8]})


def _render_park(r: Record) -> Rendered:
    """Payload ``(wait reason, snapshot_object tuple per B(g) object)``."""
    reason = r[5].value
    return reason, {"reason": reason,
                    "blocked_on": [describe_snapshot(s) for s in r[6]]}


def _render_instr(r: Record) -> Rendered:
    """Payload ``(mnemonic, cost ns, label name)``."""
    return r[5], {"op": r[5], "dur": r[6], "label": f"{r[7]}#{r[2]}"}


def _render_chan_op(r: Record) -> Rendered:
    """Payload ``(chan addr, chan label, partner goid, extra items)``."""
    args: Dict[str, Any] = {"chan": r[5], "partner": r[7]}
    if r[6]:
        args["chan_label"] = r[6]
    args.update(r[8])
    detail = f"chan 0x{r[5]:x}"
    if r[7]:
        detail += f" partner g{r[7]}"
    return detail, args


def touched_addrs(r: Record) -> Tuple:
    """Addresses of the concurrency objects ``r`` names — the ``B(g)``
    snapshots of a ``go-park``, the ``chan`` of a channel operation or
    select resolution — read from the payload without rendering."""
    render = r[4]
    if render is _render_park:
        return tuple(s[1] for s in r[6])
    if render is _render_chan_op:
        return (r[5],)
    if render is _rendered and r[6]:
        return (r[6].get("chan"),)
    return ()


def event_of(r: Record) -> TraceEvent:
    """Render one record into a fresh :class:`TraceEvent`."""
    detail, args = r[4](r)
    return TraceEvent(r[0], r[1], r[2], detail, r[3], args)


class ExecutionTracer:
    """Collects trace records in a drop-oldest ring of ``capacity``
    events and renders them into :class:`TraceEvent` objects on read."""

    def __init__(self, clock: Clock, capacity: int = 100_000):
        self.clock = clock
        self.capacity = capacity
        self._ring = RingBuffer(capacity)

    # -- the legacy API (pinned by tests/test_pprof_tracing.py) ----------

    def emit(self, kind: str, goid: int = 0, detail: str = "",
             pid: int = -1, args: Optional[Dict[str, Any]] = None) -> None:
        self._ring.append(
            (self.clock.now, kind, goid, pid, _rendered, detail, args))

    @property
    def records(self) -> List[Record]:
        """Buffered records, oldest first, unrendered (what the
        provenance engine scans)."""
        return list(self._ring)

    @property
    def events(self) -> List[TraceEvent]:
        """Buffered events, oldest first."""
        return [event_of(r) for r in self._ring]

    @property
    def dropped(self) -> int:
        return self._ring.dropped

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [event_of(r) for r in self._ring if r[1] == kind]

    def for_goroutine(self, goid: int) -> List[TraceEvent]:
        return [event_of(r) for r in self._ring if r[2] == goid]

    def format(self) -> str:
        lines = [event_of(r).format() for r in self._ring]
        if self.dropped:
            lines.append(f"... {self.dropped} events dropped (capacity)")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._ring)

    # -- goroutine lifecycle (scheduler hooks) ---------------------------
    #
    # The hot hooks inline ``RingBuffer.append`` (count, then the
    # deque's own append): one Python-level call per event is most of
    # what an evicted-unread event would otherwise cost.

    def on_create(self, g) -> None:
        ring = self._ring
        ring.appended += 1
        ring.push((self.clock.now, ev.GO_CREATE, g.goid, -1, _render_create,
                   g.name, g.fn_name or g.name, g.parent_goid, g.go_site))

    def on_park(self, g, reason) -> None:
        ring = self._ring
        ring.appended += 1
        ring.push((self.clock.now, ev.GO_PARK, g.goid, -1, _render_park,
                   reason, tuple(map(snapshot_object, g.blocked_on))))

    def on_wake(self, g) -> None:
        ring = self._ring
        ring.appended += 1
        ring.push((self.clock.now, ev.GO_WAKE, g.goid, -1, _render_bare))

    def on_finish(self, g) -> None:
        ring = self._ring
        ring.appended += 1
        ring.push((self.clock.now, ev.GO_END, g.goid, -1, _render_bare))

    def on_reclaim(self, g) -> None:
        self.emit(ev.GO_RECLAIM, g.goid)

    def on_panic(self, g, message: str) -> None:
        self.emit(ev.GO_PANIC, g.goid, message)

    def on_instr(self, pid: int, g, mnemonic: str, cost_ns: int) -> None:
        """One instruction slice starting now on virtual processor
        ``pid`` — the Chrome exporter turns these into B/E pairs on the
        per-core lanes."""
        ring = self._ring
        ring.appended += 1
        ring.push((self.clock.now, ev.INSTR, g.goid, pid, _render_instr,
                   mnemonic, cost_ns, g.fn_name or g.name))

    # -- channel operations (executor hooks) -----------------------------

    def on_chan_op(self, kind: str, g, ch, partner: int = 0,
                   extra: Optional[Dict[str, Any]] = None) -> None:
        ring = self._ring
        ring.appended += 1
        ring.push((self.clock.now, kind, g.goid, -1, _render_chan_op,
                   ch.addr, ch.label, partner,
                   tuple(extra.items()) if extra else ()))

    def on_select(self, g, case_index: int, ch, op: str,
                  partner: int = 0) -> None:
        """Select resolution: which case fired, on which channel, with
        which partner.  ``op`` is ``send``/``recv``/``default``."""
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

    # -- semaphores (executor + SemaTable hooks) -------------------------

    def on_sema(self, kind: str, g, target) -> None:
        """Immediate acquire/release through the executor fast path (a
        blocked acquire is :meth:`on_sema_queue`)."""
        tkind = getattr(target, "kind", "sema")
        addr = getattr(target, "addr", 0)
        self.emit(kind, g.goid, f"{tkind} 0x{addr:x}",
                  args={"target": addr, "target_kind": tkind,
                        "blocked": False})

    def on_sema_queue(self, key: int, g) -> None:
        """A goroutine parked on the global semaphore table (blocked
        acquire)."""
        self.emit(ev.SEMA_ACQUIRE, g.goid, f"blocked key=0x{key:x}",
                  args={"key": key, "blocked": True})

    def on_sema_dequeue(self, key: int, g) -> None:
        """A parked goroutine was granted the semaphore (handoff on
        release)."""
        self.emit(ev.SEMA_ACQUIRE, g.goid, f"granted key=0x{key:x}",
                  args={"key": key, "granted": True})

    # -- garbage collection (collector + heap hooks) ---------------------

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
        """The write barrier shaded ``obj`` during concurrent marking."""
        src_kind = getattr(src, "kind", type(src).__name__)
        self.emit(ev.BARRIER_SHADE, 0,
                  f"{obj.kind} 0x{obj.addr:x} via {src_kind}",
                  args={"obj": obj.addr, "obj_kind": obj.kind,
                        "src_kind": src_kind})

    # -- verdicts and chaos ----------------------------------------------

    def on_leak(self, report) -> None:
        self.emit(ev.DEADLOCK, report.goid,
                  f"{report.wait_reason} at {report.block_site}",
                  args={"label": report.glabel, "cycle": report.gc_cycle,
                        "wait_reason": report.wait_reason})

    def on_fault(self, kind: str, goid: int, detail: str) -> None:
        """A chaos-injected fault landed (see repro.chaos): the fault
        appears as a trace instant so campaigns are replayable from the
        artifact alone."""
        self.emit(ev.FAULT_INJECT, goid, f"{kind}: {detail}",
                  args={"fault": kind})
