"""The execution tracer: a low-overhead structured event stream.

:class:`ExecutionTracer` is the object ``rt.enable_tracing()`` installs
on the scheduler (``sched.tracer``), the semaphore table, and the heap's
shade hook.  Every instrumentation site in the runtime guards on
``tracer is not None``, so the disabled path costs one attribute check —
the same discipline the telemetry hub uses.

Events are buffered in the telemetry :class:`RingBuffer` (drop-oldest;
``dropped`` counts evictions, exposed as the ``trace_dropped_total``
metric when a hub is attached).  The GODEBUG-style ``emit``/``events``/
``format`` API of the original list-backed tracer is preserved.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.runtime.clock import Clock
from repro.telemetry.recorder import RingBuffer
from repro.trace import events as ev
from repro.trace.events import TraceEvent, describe_object


class ExecutionTracer:
    """Collects :class:`TraceEvent` records in a drop-oldest ring of
    ``capacity`` events."""

    def __init__(self, clock: Clock, capacity: int = 100_000):
        self.clock = clock
        self.capacity = capacity
        self._ring = RingBuffer(capacity)

    # -- the legacy API (pinned by tests/test_pprof_tracing.py) ----------

    def emit(self, kind: str, goid: int = 0, detail: str = "",
             pid: int = -1, args: Optional[Dict[str, Any]] = None) -> None:
        self._ring.append(
            TraceEvent(self.clock.now, kind, goid, detail, pid, args))

    @property
    def events(self) -> List[TraceEvent]:
        """Buffered events, oldest first."""
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

    # -- goroutine lifecycle (scheduler hooks) ---------------------------

    def on_create(self, g) -> None:
        self.emit(ev.GO_CREATE, g.goid, f"{g.name} at {g.go_site}",
                  args={"label": g.trace_label, "parent": g.parent_goid,
                        "site": g.go_site})

    def on_park(self, g, reason) -> None:
        self.emit(ev.GO_PARK, g.goid, reason.value,
                  args={"reason": reason.value,
                        "blocked_on": [describe_object(o)
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
        """One instruction slice starting now on virtual processor
        ``pid`` — the Chrome exporter turns these into B/E pairs on the
        per-core lanes."""
        self.emit(ev.INSTR, g.goid, mnemonic, pid=pid,
                  args={"op": mnemonic, "dur": cost_ns,
                        "label": g.trace_label})

    # -- channel operations (executor hooks) -----------------------------

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

    def on_sema(self, kind: str, g, target, blocked: bool = False) -> None:
        """Immediate acquire/release through the executor fast path."""
        tkind = getattr(target, "kind", "sema")
        addr = getattr(target, "addr", 0)
        self.emit(kind, g.goid, f"{tkind} 0x{addr:x}",
                  args={"target": addr, "target_kind": tkind,
                        "blocked": blocked})

    def on_sema_queue(self, key: int, g) -> None:
        """A goroutine parked on the global semaphore treap (blocked
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
