"""The structured trace event.

Every event the execution tracer hands out is one :class:`TraceEvent`
(rendered on read from a by-value record, see
:mod:`repro.trace.tracer`) with a *fixed* kind drawn from the
runtime's vocabulary (:mod:`repro.runtime.events`, re-exported below;
see ``docs/TRACING.md`` for the full table).  The
legacy fields (``t_ns``, ``kind``, ``goid``, ``detail``) keep the
historical GODEBUG-style text rendering stable; the ``args`` mapping
carries the structured payload the Chrome exporter and the provenance
engine consume (partner goids, channel addresses, phase names,
instruction durations).

Timestamps come exclusively from the virtual clock, so at a fixed
``(program, procs, seed)`` two runs produce byte-identical streams.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

# Re-exported: ``repro.trace.events`` stays the one module the tracer,
# the exporters and the provenance engine read kinds from.
from repro.runtime.events import *  # noqa: F401,F403
from repro.runtime.events import _KIND_NAMES  # noqa: F401


class TraceEvent:
    """One timestamped runtime event.

    ``pid`` is the virtual processor the event is attributed to (``-1``
    when the event is not tied to a core); ``args`` is the structured
    payload (may be ``None`` for bare lifecycle events).
    """

    __slots__ = ("t_ns", "kind", "goid", "detail", "pid", "args")

    def __init__(self, t_ns: int, kind: str, goid: int, detail: str,
                 pid: int = -1, args: Optional[Dict[str, Any]] = None):
        self.t_ns = t_ns
        self.kind = kind
        self.goid = goid
        self.detail = detail
        self.pid = pid
        self.args = args

    def format(self) -> str:
        who = f" g{self.goid}" if self.goid else ""
        detail = f" {self.detail}" if self.detail else ""
        return f"[{self.t_ns:>12d}ns] {self.kind}{who}{detail}"

    def as_dict(self) -> dict:
        out: Dict[str, Any] = {
            "t_ns": self.t_ns,
            "kind": self.kind,
            "goid": self.goid,
            "detail": self.detail,
        }
        if self.pid >= 0:
            out["pid"] = self.pid
        if self.args:
            out["args"] = dict(self.args)
        return out

    def __repr__(self) -> str:
        return f"<{self.format()}>"


def snapshot_object(obj: Any) -> Tuple:
    """The observable state of a concurrency object, by value.

    A flat tuple of immutable fields — what a ``go-park`` trace record
    holds per object of ``B(g)`` instead of the object, whose state
    keeps changing after the park: ``(kind, addr, label)``, for a
    channel extended by ``(capacity, buffered, closed, waiting senders,
    waiting receivers, make site)``.  The ``ε`` sentinel (nil-channel /
    zero-case-select waits, address 0, never heap-allocated) is its own
    two-field form.
    """
    kind = getattr(obj, "kind", "object")
    addr = getattr(obj, "addr", 0)
    if addr == 0 and getattr(obj, "size", None) == 0 and kind == "object":
        return ("epsilon", 0)
    label = getattr(obj, "label", "")
    if kind == "chan":
        return (kind, addr, label, obj.capacity, len(obj.buffer), obj.closed,
                obj.waiting_senders(), obj.waiting_receivers(),
                obj.make_site)
    return (kind, addr, label)


def describe_snapshot(snap: Tuple) -> Dict[str, Any]:
    """The deterministic, JSON-safe dict form of a
    :func:`snapshot_object` tuple (a fresh dict per call)."""
    if len(snap) == 2:
        return {"kind": "epsilon", "addr": 0}
    desc: Dict[str, Any] = {"kind": snap[0], "addr": snap[1]}
    if snap[2]:
        desc["label"] = snap[2]
    if len(snap) > 3:
        (desc["capacity"], desc["buffered"], desc["closed"],
         desc["waiting_senders"], desc["waiting_receivers"]) = snap[3:8]
        if snap[8]:
            desc["make_site"] = snap[8]
    return desc


def describe_object(obj: Any) -> Dict[str, Any]:
    """A deterministic, JSON-safe description of a concurrency object
    as it is now — the live form of what ``go-park`` records snapshot,
    used for provenance evidence."""
    return describe_snapshot(snapshot_object(obj))


def short_object(desc: Dict[str, Any]) -> str:
    """One-line rendering of a :func:`describe_object` dict."""
    kind = desc.get("kind", "object")
    if kind == "epsilon":
        return "epsilon (nil channel / zero-case select)"
    bits = [f"{kind} 0x{desc.get('addr', 0):x}"]
    if desc.get("label"):
        bits.append(f"{desc['label']!r}")
    if kind == "chan":
        state = "closed" if desc.get("closed") else "open"
        bits.append(
            f"cap={desc.get('capacity', 0)} "
            f"buffered={desc.get('buffered', 0)} {state} "
            f"sendq={desc.get('waiting_senders', 0)} "
            f"recvq={desc.get('waiting_receivers', 0)}")
    return " ".join(bits)
