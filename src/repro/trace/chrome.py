"""Chrome trace-event JSON export (Perfetto / ``chrome://tracing``).

Layout: one process (``pid`` 1, "repro runtime") with

- one lane per virtual core (``tid`` 0..procs-1) carrying matched B/E
  instruction slices,
- one "gc" lane (``tid`` :data:`GC_TID`) carrying GC phase transitions,
  cycle summaries, and write-barrier shade instants,
- one lane per goroutine (``tid`` = :data:`GOROUTINE_TID_BASE` + goid)
  carrying lifecycle/channel/sema instants plus a mirror of the
  goroutine's instruction slices (so a goroutine's lane shows when it
  actually ran).

Channel rendezvous are linked with flow events (``s``/``f`` pairs) from
the sender's lane to the receiver's lane, using the partner goids the
executor records on completed operations.

Timestamps are the virtual clock in microseconds (``t_ns / 1000``); no
wall-clock value ever enters the artifact, so a fixed seed yields a
byte-identical file.  :func:`validate_chrome_trace` is the schema check
``repro trace`` runs before it writes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.codec import need
from repro.errors import ArtifactError
from repro.trace import events as ev

#: The single process id all lanes live under.
RUNTIME_PID = 1
#: Thread id of the GC lane.
GC_TID = 99
#: Goroutine ``goid`` g maps to thread id ``GOROUTINE_TID_BASE + g``.
GOROUTINE_TID_BASE = 100

#: Kinds rendered as instants on the goroutine's lane.
_GOROUTINE_INSTANTS = frozenset({
    ev.GO_CREATE, ev.GO_PARK, ev.GO_WAKE, ev.GO_END, ev.GO_RECLAIM,
    ev.GO_PANIC, ev.CHAN_MAKE, ev.CHAN_SEND, ev.CHAN_RECV, ev.CHAN_CLOSE,
    ev.SELECT_RESOLVE, ev.SEMA_ACQUIRE, ev.SEMA_RELEASE, ev.DEADLOCK,
})
#: Kinds rendered as instants on the GC lane.
_GC_INSTANTS = frozenset({ev.GC_PHASE, ev.GC_CYCLE, ev.BARRIER_SHADE})


def _us(t_ns: int) -> float:
    return t_ns / 1000


def export_chrome_trace(tracer, procs: Optional[int] = None,
                        benchmark: str = "", seed: int = 0) -> dict:
    """Render the tracer's buffered events as a Chrome trace dict.

    ``procs`` sizes the per-core lanes; when omitted it is inferred from
    the instruction slices present in the buffer.
    """
    raw = tracer.events
    labels: Dict[int, str] = {}
    seen_goids: List[int] = []
    max_pid = -1
    for e in raw:
        if e.goid > 0 and e.goid not in labels:
            labels[e.goid] = ""
            seen_goids.append(e.goid)
        if e.kind == ev.GO_CREATE and e.args:
            labels[e.goid] = e.args.get("label", "")
        if e.pid > max_pid:
            max_pid = e.pid
    nprocs = procs if procs is not None else max_pid + 1

    meta: List[dict] = [{
        "ph": "M", "pid": RUNTIME_PID, "tid": 0, "ts": 0,
        "name": "process_name", "args": {"name": "repro runtime"},
    }]

    def lane(tid: int, name: str, sort_index: int) -> None:
        meta.append({"ph": "M", "pid": RUNTIME_PID, "tid": tid, "ts": 0,
                     "name": "thread_name", "args": {"name": name}})
        meta.append({"ph": "M", "pid": RUNTIME_PID, "tid": tid, "ts": 0,
                     "name": "thread_sort_index",
                     "args": {"sort_index": sort_index}})

    for pid in range(max(nprocs, 0)):
        lane(pid, f"proc {pid}", pid)
    lane(GC_TID, "gc", GC_TID)
    for goid in sorted(seen_goids):
        name = labels.get(goid) or f"g{goid}"
        lane(GOROUTINE_TID_BASE + goid, name, GOROUTINE_TID_BASE + goid)

    out: List[dict] = []
    flow_id = 0
    for e in raw:
        ts = _us(e.t_ns)
        gtid = GOROUTINE_TID_BASE + e.goid
        if e.kind == ev.INSTR:
            dur = e.args.get("dur", 0) if e.args else 0
            end = _us(e.t_ns + dur)
            for tid in (e.pid, gtid) if e.pid >= 0 else (gtid,):
                out.append({"ph": "B", "pid": RUNTIME_PID, "tid": tid,
                            "ts": ts, "name": e.detail, "cat": "instr",
                            "args": {"goid": e.goid,
                                     "label": labels.get(e.goid, "")}})
                out.append({"ph": "E", "pid": RUNTIME_PID, "tid": tid,
                            "ts": end, "name": e.detail, "cat": "instr"})
            continue
        if e.kind in _GC_INSTANTS:
            out.append({"ph": "i", "s": "p", "pid": RUNTIME_PID,
                        "tid": GC_TID, "ts": ts, "name": e.kind,
                        "cat": "gc", "args": {"detail": e.detail}})
            continue
        if e.kind == ev.FAULT_INJECT:
            tid = gtid if e.goid > 0 else GC_TID
            out.append({"ph": "i", "s": "t", "pid": RUNTIME_PID,
                        "tid": tid, "ts": ts, "name": e.kind,
                        "cat": "chaos", "args": {"detail": e.detail}})
            continue
        if e.kind in _GOROUTINE_INSTANTS:
            entry = {"ph": "i", "s": "t", "pid": RUNTIME_PID, "tid": gtid,
                     "ts": ts, "name": e.kind, "cat": "sched",
                     "args": {"detail": e.detail}}
            if e.args:
                entry["args"].update(
                    {k: v for k, v in e.args.items() if k != "blocked_on"})
            out.append(entry)
            src, dst = _flow_endpoints(e)
            if src and dst:
                flow_id += 1
                out.append({"ph": "s", "pid": RUNTIME_PID,
                            "tid": GOROUTINE_TID_BASE + src, "ts": ts,
                            "name": "chan", "cat": "chan", "id": flow_id})
                out.append({"ph": "f", "bp": "e", "pid": RUNTIME_PID,
                            "tid": GOROUTINE_TID_BASE + dst, "ts": ts,
                            "name": "chan", "cat": "chan", "id": flow_id})
            continue
        # Unknown/extension kinds degrade to instants on the GC lane so
        # the exporter never silently drops an event.
        out.append({"ph": "i", "s": "p", "pid": RUNTIME_PID, "tid": GC_TID,
                    "ts": ts, "name": e.kind, "cat": "other",
                    "args": {"detail": e.detail}})

    out.sort(key=lambda entry: entry["ts"])  # stable: ties keep ring order
    return {
        "traceEvents": meta + out,
        "displayTimeUnit": "ms",
        "otherData": {
            "benchmark": benchmark,
            "seed": seed,
            "procs": nprocs,
            "events": len(raw),
            "dropped": tracer.dropped,
            "clock": "virtual-ns/1000",
        },
    }


def _flow_endpoints(e) -> tuple:
    """(src_goid, dst_goid) of the message flow behind a channel event,
    or (0, 0) when the event moved no message between two goroutines."""
    if not e.args:
        return 0, 0
    partner = e.args.get("partner", 0)
    if not partner:
        return 0, 0
    if e.kind == ev.CHAN_SEND:
        return e.goid, partner
    if e.kind == ev.CHAN_RECV:
        return partner, e.goid
    if e.kind == ev.SELECT_RESOLVE:
        if e.args.get("op") == "send":
            return e.goid, partner
        if e.args.get("op") == "recv":
            return partner, e.goid
    return 0, 0


def validate_chrome_trace(data: Any) -> Dict[str, int]:
    """Validate the Chrome trace-event schema; raises
    :class:`~repro.errors.ArtifactError`.

    Checks the shape ``repro trace`` requires of what it writes:
    required keys on every event, non-decreasing ``ts`` over the
    non-metadata stream, matched B/E pairs per lane, and paired flow
    ids.  Returns summary counts on success.
    """
    events = need(data, "traceEvents", list, "trace")
    if not events:
        raise ArtifactError("trace: 'traceEvents' is empty")
    counts = {"events": len(events), "slices": 0, "instants": 0,
              "flows": 0, "metadata": 0}
    last_ts = None
    stacks: Dict[tuple, int] = {}
    flows: Dict[str, set] = {"s": set(), "f": set()}
    for i, e in enumerate(events):
        where = f"event {i}"
        ph = need(e, "ph", str, where)
        lane = (need(e, "pid", (int, str), where),
                need(e, "tid", (int, str), where))
        ts = need(e, "ts", (int, float), where)
        if ph == "M":
            counts["metadata"] += 1
            continue
        if last_ts is not None and ts < last_ts:
            raise ArtifactError(
                f"{where}: ts {ts} decreases (previous {last_ts})")
        last_ts = ts
        if ph == "B":
            need(e, "name", object, where)
            stacks[lane] = stacks.get(lane, 0) + 1
            counts["slices"] += 1
        elif ph == "E":
            depth = stacks.get(lane, 0)
            if depth <= 0:
                raise ArtifactError(
                    f"{where}: E without matching B on lane {lane}")
            stacks[lane] = depth - 1
        elif ph == "i":
            counts["instants"] += 1
        elif ph in flows:
            flows[ph].add(repr(need(e, "id", (int, str), where)))
            if ph == "s":
                counts["flows"] += 1
        else:
            raise ArtifactError(f"{where}: unknown phase {ph!r}")
    open_lanes = {lane: d for lane, d in stacks.items() if d}
    if open_lanes:
        raise ArtifactError(
            f"trace: unmatched B events at end of trace: {open_lanes}")
    if flows["s"] != flows["f"]:
        raise ArtifactError(
            f"trace: unpaired flow ids: starts={sorted(flows['s'])} "
            f"ends={sorted(flows['f'])}")
    return counts
