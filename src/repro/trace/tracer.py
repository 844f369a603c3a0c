"""The execution tracer: a low-overhead structured event stream.

:class:`ExecutionTracer` is the object ``rt.enable_tracing()`` installs
on the scheduler (``sched.tracer``), the semaphore table, and the heap's
shade hook.  Every instrumentation site in the runtime guards on
``tracer is not None``, so the disabled path costs one attribute check —
the same discipline the telemetry hub uses.

Capture is **by value, rendered on read**.  A trace record is the flat
tuple ``(t_ns, kind, goid, pid, render, *payload)``, but the tracer does
not keep one tuple per event: a hook ``extend``s the current *block*, a
plain list of :data:`BLOCK` records, with a small shape code followed by
only the fields that vary.  The code stands for what every event of its
shape shares — the kind (for the six hot hooks), the ``render`` function
and ``pid = -1`` — and a read rebuilds the tuple from it.  Only what
changed is kept: the time is the delta from the block's previous record
(a block's first record keeps its time, so each block decodes on its
own), which is mostly 0 or a cached small int rather than a fresh int
per event; and a park on exactly one :class:`Channel` stores the
channel's snapshot fields flat under a shape of its own, where any other
``B(g)`` keeps a tuple of snapshots.  A full block joins a deque, and
the oldest whole block goes once the blocks after it still cover
``capacity`` records, so the buffer is drop-oldest over exactly the last
``capacity`` records (``dropped`` counts the rest, which the ``repro
run`` report prints) and never holds more than ``capacity`` plus one
block.  Most events are evicted unread, and the provenance engine reads
the blocks in place (:meth:`ExecutionTracer.provenance_scan`).

The payload holds only immutable values copied at event time — names,
addresses, counts, :func:`~repro.trace.events.snapshot_object` tuples —
never a goroutine, channel or other runtime-owned object: descriptors
are recycled and channel state moves on after the event, and a ring of
references would pin every dead object graph it names.
``render(record)`` is a pure function returning the event's ``(detail,
args)``; every read (``events`` / ``of_kind`` / ``for_goroutine`` /
``format``) renders fresh :class:`TraceEvent` objects, so two reads are
equal and neither can disturb the other.  ``emit`` records an
already-rendered event (the form the cold callers use).
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple,
)

from repro.runtime.channel import Channel
from repro.runtime.clock import Clock
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


def event_of(r: Record) -> TraceEvent:
    """Render one record into a fresh :class:`TraceEvent`."""
    detail, args = r[4](r)
    return TraceEvent(r[0], r[1], r[2], detail, r[3], args)


#: Records per block (a smaller ``capacity`` uses blocks of
#: ``capacity`` records).
BLOCK = 4096

# Shape codes: what the block stores after each code.  Every shape
# stores ``dt`` (the record's time less the time of the block's
# previous record; a block's first record stores its time) and then: a
# fixed shape ``goid, *payload``; ``INSTR`` ``goid, pid, *payload``;
# ``PARK_CHAN`` ``goid, reason`` and the snapshot of its one channel
# less the constant ``"chan"``; ``EMIT`` ``kind, goid, pid, *payload``.
(_CREATE, _PARK, _WAKE, _END, _MAKE, _SEND, _RECV, _CLOSE, _INSTR,
 _PARK_CHAN, _EMIT) = range(11)
_FIXED, _WITH_PID, _CHAN_PARK, _WITH_HEADER = range(4)
#: ``code -> (form, kind, render, width)``; ``width`` counts the code.
_SHAPES = (
    (_FIXED, ev.GO_CREATE, _render_create, 7),
    (_FIXED, ev.GO_PARK, _render_park, 5),
    (_FIXED, ev.GO_WAKE, _render_bare, 3),
    (_FIXED, ev.GO_END, _render_bare, 3),
    (_FIXED, ev.CHAN_MAKE, _render_chan_op, 7),
    (_FIXED, ev.CHAN_SEND, _render_chan_op, 7),
    (_FIXED, ev.CHAN_RECV, _render_chan_op, 7),
    (_FIXED, ev.CHAN_CLOSE, _render_chan_op, 7),
    (_WITH_PID, ev.INSTR, _render_instr, 7),
    (_CHAN_PARK, ev.GO_PARK, _render_park, 12),
    (_WITH_HEADER, None, _rendered, 7),
)
#: The channel-operation kinds ``on_chan_op`` is called with.
_CHAN_SHAPE = {ev.CHAN_MAKE: _MAKE, ev.CHAN_SEND: _SEND,
               ev.CHAN_RECV: _RECV, ev.CHAN_CLOSE: _CLOSE}


def _record(block: List[Any], i: int, t: int) -> Record:
    """The record whose shape code is ``block[i]``, at time ``t``."""
    form, kind, render, width = _SHAPES[block[i]]
    if form == _FIXED:
        return (t, kind, block[i + 2], -1, render, *block[i + 3:i + width])
    if form == _WITH_PID:
        return (t, kind, block[i + 2], block[i + 3], render,
                *block[i + 4:i + width])
    if form == _CHAN_PARK:
        return (t, kind, block[i + 2], -1, render, block[i + 3],
                (("chan", *block[i + 4:i + width]),))
    return (t, block[i + 2], block[i + 3], block[i + 4], render,
            *block[i + 5:i + width])


def _decode(block: List[Any], skip: int) -> List[Record]:
    """The records of one block, oldest first, past its first ``skip``."""
    out: List[Record] = []
    shapes = _SHAPES
    t = i = 0
    n = len(block)
    while i < n:
        t += block[i + 1]
        if skip:
            skip -= 1
        else:
            out.append(_record(block, i, t))
        i += shapes[block[i]][3]
    return out


class ExecutionTracer:
    """Collects trace records in blocks, drop-oldest over the last
    ``capacity`` events, and renders them into :class:`TraceEvent`
    objects on read."""

    def __init__(self, clock: Clock, capacity: int = 100_000):
        if capacity < 1:
            raise ValueError("ring buffer capacity must be positive")
        self.clock = clock
        self.capacity = capacity
        self._block_size = min(BLOCK, capacity)
        #: Full blocks, oldest first, and the block being written.
        self._blocks: deque = deque()
        self._block: List[Any] = []
        self._put = self._block.extend
        #: Records the current block takes before :meth:`_spill` runs,
        #: and its record count when it does.
        self._left = self._spill_at = self._block_size
        #: Records in blocks already dropped.
        self._discarded = 0
        #: Time of the current block's last record (0 before its first).
        self._t = 0

    def _spill(self) -> None:
        """The current block reached its spill point: a full block joins
        the deque, then every oldest block goes whose followers still
        cover ``capacity`` records."""
        size = self._block_size
        fill = self._spill_at
        blocks = self._blocks
        if fill == size:
            # A copy at its exact length: ``extend`` over-allocates.
            blocks.append(self._block.copy())
            self._block.clear()
            self._t = fill = 0
        while blocks and size * (len(blocks) - 1) + fill >= self.capacity:
            blocks.popleft()
            self._discarded += size
        # Spill next when the block is full or the oldest block can go.
        at = size
        if blocks:
            at = min(size, self.capacity - size * (len(blocks) - 1))
        self._left = at - fill
        self._spill_at = at

    def _held(self) -> int:
        """Records in the blocks, counting those of the oldest block
        that already fall outside the last-``capacity`` window."""
        return (self._block_size * len(self._blocks)
                + self._spill_at - self._left)

    def _decoded_blocks(self) -> Iterator[List[Record]]:
        skip = self._held() - len(self)
        for block in chain(self._blocks, (self._block,)):
            yield _decode(block, skip)
            skip = 0

    # -- the legacy API (pinned by tests/test_pprof_tracing.py) ----------

    def emit(self, kind: str, goid: int = 0, detail: str = "",
             pid: int = -1, args: Optional[Dict[str, Any]] = None) -> None:
        now = self.clock.now
        self._put((_EMIT, now - self._t, kind, goid, pid, detail, args))
        self._t = now
        self._left -= 1
        if not self._left:
            self._spill()

    def iter_records(self) -> Iterator[Record]:
        """Buffered records, oldest first, unrendered, decoded one block
        at a time."""
        return chain.from_iterable(self._decoded_blocks())

    def provenance_scan(self, goids: Iterable[int], watched: Set[int]
                        ) -> Tuple[Dict[int, List[Record]],
                                   Dict[int, Record], List[Tuple]]:
        """One pass over the blocks in place for the provenance engine:
        ``(own, creates, touches)``.  ``own`` maps each of ``goids`` to
        its records, oldest first; ``creates`` maps every other goroutine
        to its last ``go-create`` record; ``touches`` lists, in ring
        order, ``(goid, kind, addrs)`` for every other goroutine's
        record that names an address in ``watched`` (the ``B(g)``
        snapshots of a ``go-park``, the ``chan`` of a channel operation
        or of an emitted event's ``args``).  Only the records returned
        are built as tuples; the rest are tested on their raw fields."""
        own: Dict[int, List[Record]] = {goid: [] for goid in goids}
        creates: Dict[int, Record] = {}
        touches: List[Tuple] = []
        shapes = _SHAPES
        skip = self._held() - len(self)
        for block in chain(self._blocks, (self._block,)):
            t = i = 0
            n = len(block)
            while i < n:
                code = block[i]
                _, kind, _, width = shapes[code]
                t += block[i + 1]
                if skip:
                    skip -= 1
                    i += width
                    continue
                goid = block[i + 3] if code == _EMIT else block[i + 2]
                if goid in own:
                    own[goid].append(_record(block, i, t))
                elif goid:
                    addrs: Tuple = ()
                    if code == _CREATE:
                        creates[goid] = _record(block, i, t)
                    elif _MAKE <= code <= _CLOSE:
                        addrs = (block[i + 3],)
                    elif code == _PARK_CHAN:
                        addrs = (block[i + 4],)
                    elif code == _PARK:
                        addrs = tuple(s[1] for s in block[i + 4])
                    elif code == _EMIT and block[i + 6]:
                        kind = block[i + 2]
                        addrs = (block[i + 6].get("chan"),)
                    if addrs and not watched.isdisjoint(addrs):
                        touches.append((goid, kind, addrs))
                i += width
        return own, creates, touches

    @property
    def records(self) -> List[Record]:
        """Buffered records, oldest first, unrendered."""
        return list(self.iter_records())

    @property
    def events(self) -> List[TraceEvent]:
        """Buffered events, oldest first."""
        return [event_of(r) for r in self.iter_records()]

    @property
    def dropped(self) -> int:
        return self._discarded + self._held() - len(self)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [event_of(r) for r in self.iter_records() if r[1] == kind]

    def for_goroutine(self, goid: int) -> List[TraceEvent]:
        return [event_of(r) for r in self.iter_records() if r[2] == goid]

    def format(self) -> str:
        lines = [event_of(r).format() for r in self.iter_records()]
        if self.dropped:
            lines.append(f"... {self.dropped} events dropped (capacity)")
        return "\n".join(lines)

    def __len__(self) -> int:
        return min(self._held(), self.capacity)

    # -- goroutine lifecycle (scheduler hooks) ---------------------------
    #
    # The hot hooks inline ``emit``'s count and spill test: one
    # Python-level call per event is most of what an evicted-unread
    # event would otherwise cost.

    def on_create(self, g) -> None:
        now = self.clock.now
        self._put((_CREATE, now - self._t, g.goid, g.name,
                   g.fn_name or g.name, g.parent_goid, g.go_site))
        self._t = now
        self._left -= 1
        if not self._left:
            self._spill()

    def on_park(self, g, reason) -> None:
        now = self.clock.now
        objs = g.blocked_on
        if len(objs) == 1 and type(objs[0]) is Channel:
            # The common park, flat: ``snapshot_object``'s fields.
            ch = objs[0]
            self._put((_PARK_CHAN, now - self._t, g.goid, reason, ch.addr,
                       ch.label, ch.capacity, len(ch.buffer), ch.closed,
                       ch.waiting_senders(), ch.waiting_receivers(),
                       ch.make_site))
        else:
            self._put((_PARK, now - self._t, g.goid, reason,
                       tuple(map(snapshot_object, objs))))
        self._t = now
        self._left -= 1
        if not self._left:
            self._spill()

    def on_wake(self, g) -> None:
        now = self.clock.now
        self._put((_WAKE, now - self._t, g.goid))
        self._t = now
        self._left -= 1
        if not self._left:
            self._spill()

    def on_finish(self, g) -> None:
        now = self.clock.now
        self._put((_END, now - self._t, g.goid))
        self._t = now
        self._left -= 1
        if not self._left:
            self._spill()

    def on_reclaim(self, g) -> None:
        self.emit(ev.GO_RECLAIM, g.goid)

    def on_panic(self, g, message: str) -> None:
        self.emit(ev.GO_PANIC, g.goid, message)

    def on_instr(self, pid: int, g, mnemonic: str, cost_ns: int) -> None:
        """One instruction slice starting now on virtual processor
        ``pid`` — the Chrome exporter turns these into B/E pairs on the
        per-core lanes."""
        now = self.clock.now
        self._put((_INSTR, now - self._t, g.goid, pid, mnemonic, cost_ns,
                   g.fn_name or g.name))
        self._t = now
        self._left -= 1
        if not self._left:
            self._spill()

    # -- channel operations (executor hooks) -----------------------------

    def on_chan_op(self, kind: str, g, ch, partner: int = 0,
                   extra: Optional[Dict[str, Any]] = None) -> None:
        now = self.clock.now
        self._put((_CHAN_SHAPE[kind], now - self._t, g.goid, ch.addr,
                   ch.label, partner,
                   tuple(extra.items()) if extra else ()))
        self._t = now
        self._left -= 1
        if not self._left:
            self._spill()

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
