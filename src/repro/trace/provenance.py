"""The leak-provenance engine: causal "why-leaked" evidence per report.

When GOLF condemns a goroutine (``Collector._report_and_recover``), this
module captures the *marking-time* evidence the verdict rests on, before
recovery re-marks the condemned subgraph and before masks are dropped:

- the **blocked operation** — wait reason and the full observable state
  of every object in ``B(g)`` (channel capacity/buffer/queues, the ``ε``
  sentinel for nil-channel waits);
- the **wait-for graph** among condemned goroutines — who else is parked
  on the same objects (channel sudog queues and shared ``B(g)`` sets);
- the **reference-path absence proof** — after the reachable-liveness
  fixpoint each blocking object is unmarked, i.e. no path from live
  roots reaches it; the only referencers are other condemned goroutines,
  which the capture enumerates;
- the **last-communication partners** — the channel-side transfer
  ledger (last sender/receiver goid, total transfers) plus, when the
  execution tracer is attached, the goroutines the trace shows once
  waited on or communicated over the blocking object and then moved on
  (the "abandoners");
- a **minimal event slice** from the trace ending at the fatal park.

Capture runs unconditionally on every detection — tracer or not — so
every leak report in the microbench registry carries a non-empty causal
evidence chain.  All inputs are virtual-clock/heap-address deterministic,
so rendered artifacts are byte-identical across runs at a fixed seed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.trace import events as ev
from repro.trace.events import describe_object, short_object
from repro.trace.tracer import event_of, touched_addrs

#: Cap on the per-leak minimal event slice.
EVENT_SLICE_LIMIT = 20


class ProvenanceRecord:
    """The causal evidence behind one partial-deadlock verdict."""

    __slots__ = ("goid", "glabel", "name", "go_site", "block_site",
                 "wait_reason", "gc_cycle", "detected_at_ns", "blocked_op",
                 "reachability", "waitfor", "partners", "abandoned_by",
                 "event_slice", "evidence")

    def __init__(self, goid: int, glabel: str, name: str, go_site: str,
                 block_site: str, wait_reason: str, gc_cycle: int,
                 detected_at_ns: int):
        self.goid = goid
        self.glabel = glabel
        self.name = name
        self.go_site = go_site
        self.block_site = block_site
        self.wait_reason = wait_reason
        self.gc_cycle = gc_cycle
        self.detected_at_ns = detected_at_ns
        #: Descriptions of every object in ``B(g)`` at condemnation time.
        self.blocked_op: List[Dict[str, Any]] = []
        #: Per-object absence proof (marked bit + referencer census).
        self.reachability: List[Dict[str, Any]] = []
        #: Wait-for edges: other goroutines parked on the same objects.
        self.waitfor: List[Dict[str, Any]] = []
        #: Last-communication ledger per blocking channel.
        self.partners: List[Dict[str, Any]] = []
        #: Goroutines the trace shows waited on / used the blocking
        #: object and then proceeded (trace-derived; empty w/o tracer).
        self.abandoned_by: List[str] = []
        #: Minimal event slice ending at the fatal park (trace-derived).
        self.event_slice: List[Dict[str, Any]] = []
        #: The ordered causal evidence chain (always non-empty).
        self.evidence: List[str] = []

    def as_dict(self) -> dict:
        return {
            "goid": self.goid,
            "glabel": self.glabel,
            "name": self.name,
            "go_site": self.go_site,
            "block_site": self.block_site,
            "wait_reason": self.wait_reason,
            "gc_cycle": self.gc_cycle,
            "detected_at_ns": self.detected_at_ns,
            "blocked_op": self.blocked_op,
            "reachability": self.reachability,
            "waitfor": self.waitfor,
            "partners": self.partners,
            "abandoned_by": self.abandoned_by,
            "event_slice": self.event_slice,
            "evidence": self.evidence,
        }

    def format(self) -> str:
        """Deterministic text rendering of the why-leaked report."""
        lines = [
            f"why-leaked: goroutine {self.glabel} [{self.wait_reason}]",
            f"  spawned at: {self.go_site}",
            f"  blocked at: {self.block_site}",
            f"  detected:   GC cycle {self.gc_cycle} "
            f"@ {self.detected_at_ns}ns",
            "  evidence:",
        ]
        for i, step in enumerate(self.evidence, 1):
            lines.append(f"    {i}. {step}")
        if self.blocked_op:
            lines.append("  blocked on:")
            for desc in self.blocked_op:
                lines.append(f"    - {short_object(desc)}")
        if self.waitfor:
            lines.append("  wait-for edges:")
            for edge in self.waitfor:
                lines.append(
                    f"    - {edge['from']} -> {edge['to']} "
                    f"via {edge['via']} ({edge['peer_state']})")
        if self.event_slice:
            lines.append(
                f"  event slice (last {len(self.event_slice)} events "
                "up to the fatal park):")
            for entry in self.event_slice:
                lines.append(
                    f"    [{entry['t_ns']:>12d}ns] {entry['kind']}"
                    + (f" {entry['detail']}" if entry["detail"] else ""))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<provenance {self.glabel} [{self.wait_reason}] "
                f"{len(self.evidence)} evidence steps>")


def provenance_document(records: List[ProvenanceRecord], benchmark: str,
                        procs: int, seed: int) -> dict:
    """The machine-readable why-leaked artifact of one run."""
    return {
        "benchmark": benchmark,
        "procs": procs,
        "seed": seed,
        "leaks": [p.as_dict() for p in records],
    }


def provenance_text(records: List[ProvenanceRecord], benchmark: str,
                    procs: int, seed: int) -> str:
    """The human rendering of :func:`provenance_document`."""
    header = (f"leak provenance: {benchmark} (procs={procs}, seed={seed})\n"
              f"{len(records)} leaked goroutine(s)")
    return "\n\n".join([header] + [p.format() for p in records]) + "\n"


def capture_provenance(deadlocked: List[Any], heap, sched, gc_cycle: int,
                       detected_at_ns: int,
                       tracer=None) -> Dict[int, "ProvenanceRecord"]:
    """Capture evidence for every condemned goroutine, keyed by goid.

    Must run *before* recovery marks the condemned subgraphs: the
    absence proof reads the post-fixpoint mark bits, and marking the
    first goroutine's subgraph would flip the bits a later goroutine's
    proof depends on.
    """
    condemned_goids = {g.goid for g in deadlocked}
    # Referencer census: which condemned goroutines' stacks reach which
    # blocking objects (computed once for the whole set).
    stack_reach: Dict[int, set] = {}
    for g in deadlocked:
        reach = set()
        for obj in g.stack_heap_refs():
            reach.add(obj.addr)
        stack_reach[g.goid] = reach

    records: Dict[int, ProvenanceRecord] = {}
    for g in deadlocked:
        rec = ProvenanceRecord(
            goid=g.goid,
            glabel=g.trace_label,
            name=g.name,
            go_site=g.go_site,
            block_site=g.block_site(),
            wait_reason=g.wait_reason.value if g.wait_reason else "unknown",
            gc_cycle=gc_cycle,
            detected_at_ns=detected_at_ns,
        )
        for obj in g.blocked_on:
            desc = describe_object(obj)
            rec.blocked_op.append(desc)
            rec.reachability.append(
                _absence_proof(obj, desc, g, deadlocked, stack_reach, heap))
            _waitfor_edges(rec, obj, desc, g, deadlocked, condemned_goids)
            if desc.get("kind") == "chan":
                rec.partners.append({
                    "chan": obj.addr,
                    "last_sender_goid": obj.last_sender_goid,
                    "last_receiver_goid": obj.last_receiver_goid,
                    "transfers": obj.total_transfers,
                })
        records[g.goid] = rec
    if tracer is not None:
        _trace_evidence(records, tracer)
    for rec in records.values():
        rec.evidence = _build_evidence_chain(rec)
    return records


def _absence_proof(obj, desc, g, deadlocked, stack_reach,
                   heap) -> Dict[str, Any]:
    """The reference-path(-absence) evidence for one blocking object."""
    if desc.get("kind") == "epsilon":
        return {"object": desc, "verdict": "epsilon",
                "marked": False, "condemned_referencers": []}
    if not heap.contains(obj):
        return {"object": desc, "verdict": "off-heap",
                "marked": False, "condemned_referencers": []}
    referencers = sorted(
        g2.goid for g2 in deadlocked
        if obj.addr in stack_reach[g2.goid]
        or any(o is obj for o in g2.blocked_on))
    return {
        "object": desc,
        "marked": heap.is_marked(obj),
        "condemned_referencers": referencers,
        "verdict": ("marked-live" if heap.is_marked(obj)
                    else "unreachable-from-live-roots"),
    }


def _waitfor_edges(rec, obj, desc, g, deadlocked, condemned_goids) -> None:
    """Edges to the other goroutines parked on the same object."""
    via = short_object(desc)
    peers: Dict[int, str] = {}
    if desc.get("kind") == "chan":
        for queue, role in ((obj.sendq, "parked sender"),
                            (obj.recvq, "parked receiver")):
            for sd in queue:
                if sd.active and sd.g is not g:
                    peers.setdefault(sd.g.goid, role)
    for g2 in deadlocked:
        if g2 is not g and any(o is obj for o in g2.blocked_on):
            peers.setdefault(g2.goid, "blocked on same object")
    for goid in sorted(peers):
        rec.waitfor.append({
            "from": rec.glabel,
            "from_goid": rec.goid,
            "to": f"g{goid}",
            "to_goid": goid,
            "via": via,
            "peer_state": peers[goid],
            "peer_condemned": goid in condemned_goids,
        })


def _trace_evidence(records: Dict[int, "ProvenanceRecord"], tracer) -> None:
    """Trace-derived evidence — the minimal event slice and the
    abandoners — for the whole condemned set from one pass over the
    ring.  The pass streams raw trace records (header fields ``r[1]``
    kind, ``r[2]`` goid; see :mod:`repro.trace.tracer`) one decoded
    block at a time, keeps only the condemned goroutines' own records
    and the ``go-create`` ones, and renders only the events a report
    quotes."""
    history: Dict[int, List[Any]] = {goid: [] for goid in records}
    blocking = {goid: {d["addr"] for d in rec.blocked_op if d.get("addr")}
                for goid, rec in records.items()}
    watched = set().union(*blocking.values())
    #: Other goroutines' events naming a watched object, in ring order.
    touches: List[Any] = []
    creates: Dict[int, Any] = {}
    for r in tracer.iter_records():
        goid = r[2]
        if goid in history:
            history[goid].append(r)
        elif goid:
            if r[1] == ev.GO_CREATE:
                creates[goid] = r
            addrs = touched_addrs(r)
            if addrs and not watched.isdisjoint(addrs):
                touches.append((goid, r[1], addrs))
    for goid, rec in records.items():
        own = history[goid]
        last_park = None
        for i, r in enumerate(own):
            if r[1] == ev.GO_PARK:
                last_park = i
        if last_park is not None:
            first = max(0, last_park + 1 - EVENT_SLICE_LIMIT)
            rec.event_slice = [
                {"t_ns": e.t_ns, "kind": e.kind, "detail": e.detail}
                for e in map(event_of, own[first:last_park + 1])
            ]
        # Abandoners: other, non-condemned goroutines the trace shows
        # once parked on / communicated over one of the blocking objects.
        mine = blocking[goid]
        abandoners: Dict[int, str] = {}
        for other, kind, addrs in touches:
            if mine.isdisjoint(addrs):
                continue
            if kind == ev.GO_PARK:
                abandoners[other] = "once waited here, then proceeded"
            else:
                abandoners.setdefault(other, f"last touched it via {kind}")
        rec.abandoned_by = [
            f"{_create_label(creates, other)}: {why}"
            for other, why in sorted(abandoners.items())
        ]


def _create_label(creates: Dict[int, Any], goid: int) -> str:
    """The ``go-create`` label of ``goid``; ``g<goid>`` when the event
    was evicted or carried none."""
    r = creates.get(goid)
    args = event_of(r).args if r is not None else None
    return (args or {}).get("label", f"g{goid}")


def _build_evidence_chain(rec) -> List[str]:
    """The ordered causal chain; by construction never empty."""
    chain = [
        f"goroutine {rec.glabel} is parked at {rec.block_site} "
        f"in state [{rec.wait_reason}], spawned at {rec.go_site}",
    ]
    if rec.blocked_op:
        ops = "; ".join(short_object(d) for d in rec.blocked_op)
        chain.append(f"its blocking operation B(g) waits on: {ops}")
    else:
        chain.append("its blocking operation has an empty B(g) set")
    eps = [d for d in rec.blocked_op if d.get("kind") == "epsilon"]
    if eps:
        chain.append(
            "B(g) contains the epsilon sentinel: a nil-channel or "
            "zero-case-select wait no memory write can ever complete")
    unreachable = [r for r in rec.reachability
                   if r["verdict"] == "unreachable-from-live-roots"]
    for proof in unreachable:
        refs = proof["condemned_referencers"]
        others = [goid for goid in refs if goid != rec.goid]
        who = (f"only condemned goroutines {others} also reference it"
               if others else "no other goroutine references it at all")
        chain.append(
            f"after the reachable-liveness fixpoint of GC cycle "
            f"{rec.gc_cycle}, {short_object(proof['object'])} is "
            f"unmarked: no path from live roots reaches it, and {who}")
    for p in rec.partners:
        if p["transfers"] == 0:
            chain.append(
                f"no message was ever transferred on chan "
                f"0x{p['chan']:x}: the expected partner never engaged")
        else:
            chain.append(
                f"last communication on chan 0x{p['chan']:x}: sender "
                f"g{p['last_sender_goid']}, receiver "
                f"g{p['last_receiver_goid']}, "
                f"{p['transfers']} transfer(s) total")
    if rec.waitfor:
        peers = ", ".join(
            f"{e['to']} ({e['peer_state']})" for e in rec.waitfor)
        chain.append(f"wait-for peers on the same object(s): {peers}")
    for entry in rec.abandoned_by:
        chain.append(f"trace evidence: {entry}")
    chain.append(
        "therefore no live goroutine can ever complete the blocking "
        "operation: partial deadlock")
    return chain
