"""Behavioral types: trace-based per-channel leak-freedom proofs.

The rule engine (:mod:`repro.staticcheck.rules`) pattern-matches op
multisets.  This module goes further, following the forkable-behavioral-
type line of work (Stadtmüller/Sulzmann/Thiemann's trace abstractions for
synchronous Mini-Go; Gu/Liu/Ke's coroutine flow types): each goroutine
body becomes a *trace term* — a sequence of communication steps with
fork, external choice (select), and iteration — and the whole program is
the synchronous composition of those terms.  An exhaustive bounded
exploration of the composition then renders one verdict per channel:

- :data:`PROVEN` (``proven-leak-free``): no reachable terminal state has
  any component blocked on the channel.  A ``repro vet --prove``
  verdict only: the runtime detector never consumes it.
- :data:`POTENTIAL` (``potential-leak``): a *definite* counterexample
  trace exists — a terminal stuck state reachable without resolving any
  may-branch (conditional op, early loop exit, unmodelable op).
- :data:`UNPROVEN` (``unknown``): the model is incomplete for this
  channel (escape, unknown capacity, unbounded communication, giveup) or
  a stuck state is reachable only through may-branches.  The rule engine
  remains the second opinion for these.

Modeling conventions (every :data:`PROVEN` verdict rests on them):

- Conditional ops (``cond_depth > 0`` relative to their body's spawn)
  are *optional*: the exploration branches on skip/take, both flagged as
  may-branches.  Sound over-approximation for PROVEN.
- An unconditional loop-unbounded receive is a drain loop: it consumes
  until the channel is closed and empty — the same absorption assumption
  the rule engine's send/recv balance checks make.  A *conditional*
  unbounded receive may additionally exit early (may-branch).
- Ops the model cannot express exactly (unbounded sends, unresolved
  operands, condition variables, ...) become *maybe-halt* steps — the
  component either proceeds or parks forever — and any channel they
  touch is forced :data:`UNPROVEN`.
- Finite loops are unrolled only when the body contains a single
  multi-execution op (the common ``for: send`` / ``for: go worker()``
  shapes); re-serializing several ops of one loop is order-ambiguous,
  so those channels fall back to :data:`UNPROVEN` instead.
- The composition is the whole program: a verdict holds for the entry
  it was computed under, not for the same make-site reached from
  another entry.
- A panic (send on a closed channel, double close, negative WaitGroup,
  unlock of an unlocked mutex) terminates the program, so nothing leaks
  after it: the panic state is a clean terminal.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.staticcheck.model import (
    MANY,
    ChanVal,
    Extraction,
    MutexVal,
    Op,
    SemaVal,
    WgVal,
)

#: Per-channel verdicts.
PROVEN = "proven-leak-free"
POTENTIAL = "potential-leak"
UNPROVEN = "unknown"

#: Exploration caps: the composition of a goroutine microtopology is
#: tiny; hitting these means the model is not worth trusting.
MAX_COMPONENTS = 16
MAX_UNROLL = 8
MAX_STATES = 50_000
MAX_TRANSITIONS = 250_000

#: Component position sentinels.
_DONE = -1
_HALTED = -2
_INACTIVE = -3

#: The absorbing whole-program panic state (send-on-closed, double
#: close, negative WaitGroup, unlock-of-unlocked): the process dies, so
#: nothing leaks — a *clean* terminal for leak purposes.
_PANIC_STATE = ("panic",)


class Step:
    """One step of a component's trace term."""

    __slots__ = ("kind", "chan", "site", "optional", "arms", "default",
                 "delta", "obj", "spawn_body", "spawn_count", "may_exit")

    def __init__(self, kind: str, chan: Optional[int] = None,
                 site: str = "", optional: bool = False,
                 arms: Optional[List[Tuple[str, Optional[int]]]] = None,
                 default: bool = False, delta: int = 0,
                 obj: Optional[int] = None,
                 spawn_body: Optional[int] = None, spawn_count: int = 0,
                 may_exit: bool = False):
        self.kind = kind          # send/recv/close/drain/select/spawn/
        #                           wg-add/wg-done/wg-wait/lock/unlock/
        #                           rlock/runlock/sem-acquire/sem-release/
        #                           halt/maybe-halt/panic
        self.chan = chan          # channel uid (chan steps)
        self.site = site
        self.optional = optional  # conditional: skip is a may-branch
        self.arms = arms or []    # select: [(kind, chan-uid-or-None)]
        self.default = default    # select has a default arm
        self.delta = delta        # wg-add
        self.obj = obj            # wg/mutex/sema uid
        self.spawn_body = spawn_body
        self.spawn_count = spawn_count
        self.may_exit = may_exit  # drain: may stop before close

    def __repr__(self) -> str:
        return f"<step {self.kind}{'' if self.chan is None else f' c{self.chan}'}>"


class Component:
    """One goroutine instance in the composition."""

    __slots__ = ("name", "body_uid", "instance", "steps", "entry")

    def __init__(self, name: str, body_uid: int, instance: int,
                 steps: List[Step], entry: bool = False):
        self.name = name
        self.body_uid = body_uid
        self.instance = instance
        self.steps = steps
        self.entry = entry

    @property
    def label(self) -> str:
        return f"{self.name}[{self.instance}]"


class BehaviorModel:
    """The closed trace term: components plus shared-object topology."""

    __slots__ = ("entry_name", "file", "components", "channels", "wgs",
                 "mutexes", "semas", "unknown_channels", "notes",
                 "_body_instances")

    def __init__(self, entry_name: str, file: str):
        self.entry_name = entry_name
        self.file = file
        self.components: List[Component] = []
        #: uid -> {"capacity": int, "label": str, "site": str}
        self.channels: Dict[int, Dict[str, Any]] = {}
        self.wgs: List[int] = []
        self.mutexes: List[int] = []
        #: uid -> initial count
        self.semas: Dict[int, int] = {}
        #: uid -> reason: channels excluded from modeling.
        self.unknown_channels: Dict[int, str] = {}
        self.notes: List[str] = []
        self._body_instances: Dict[int, List[int]] = {}

    def finalize(self) -> None:
        """Index components by body for spawn activation."""
        self._body_instances = {}
        for idx, comp in enumerate(self.components):
            self._body_instances.setdefault(comp.body_uid, []).append(idx)

    def instances_of(self, body_uid: int) -> List[int]:
        return self._body_instances.get(body_uid, [])

    def chan_name(self, uid: Optional[int]) -> str:
        if uid is None:
            return "nil"
        info = self.channels.get(uid)
        if info and info.get("label"):
            return info["label"]
        return f"chan#{uid}"


# ---------------------------------------------------------------------------
# Model construction from an Extraction
# ---------------------------------------------------------------------------


def _rel_mult(op_mult, base_mult) -> Optional[float]:
    """Multiplicity of an op relative to one instance of its body."""
    if op_mult == MANY:
        return MANY
    if base_mult == MANY:
        return MANY
    if op_mult % base_mult:
        return None
    return op_mult // base_mult


def _pair_spawns(ex: Extraction) -> Dict[int, Op]:
    """Map child body uid -> the parent ``go`` op that spawned it.

    Children are created immediately after their ``go`` op is recorded,
    so pairing (parent, spawn-site) claims in seq order is exact.
    """
    pairing: Dict[int, Op] = {}
    claimed: set = set()
    go_ops = sorted((op for op in ex.ops if op.mnemonic == "go"),
                    key=lambda o: o.seq)
    for body in ex.bodies:
        if body.spawn_site is None:
            continue
        for op in go_ops:
            if id(op) in claimed:
                continue
            if op.body is body.parent and op.site == body.spawn_site:
                pairing[body.uid] = op
                claimed.add(id(op))
                break
    return pairing


class _ModelBuilder:
    """Two-pass lowering: poison pass, then step emission."""

    def __init__(self, ex: Extraction):
        self.ex = ex
        self.model = BehaviorModel(ex.entry_name, ex.file)
        self.spawn_of = _pair_spawns(ex)
        self.unknown: Dict[int, str] = {}
        self.tainted_wg: set = set()
        self.tainted_mutex: set = set()
        self.tainted_sema: set = set()
        self.global_unknown: Optional[str] = None
        #: ids of ops already folded into a select step or nil arm.
        self.consumed: set = set()
        #: body uid -> ops sorted by seq
        self.body_ops: Dict[int, List[Op]] = {}
        for op in ex.ops:
            self.body_ops.setdefault(op.body.uid, []).append(op)
        for ops in self.body_ops.values():
            ops.sort(key=lambda o: o.seq)

    # -- pass helpers ----------------------------------------------------

    def _base(self, body_uid: int) -> Tuple[int, Any]:
        """(cond_depth, mult) of the body's spawn point."""
        op = self.spawn_of.get(body_uid)
        if op is None:
            return (0, 1)
        return (op.cond_depth, op.mult)

    def _body_total(self, body_uid: int):
        """Absolute instance count of a body (1 for the entry)."""
        op = self.spawn_of.get(body_uid)
        return 1 if op is None else op.mult

    def mark_unknown(self, val, reason: str) -> None:
        uid = getattr(val, "uid", None)
        if isinstance(val, ChanVal) and uid is not None:
            self.unknown.setdefault(uid, reason)

    def taint(self, val) -> None:
        if isinstance(val, WgVal):
            self.tainted_wg.add(val.uid)
        elif isinstance(val, MutexVal):
            self.tainted_mutex.add(val.uid)
        elif isinstance(val, SemaVal):
            self.tainted_sema.add(val.uid)

    # -- pass 1: poison --------------------------------------------------

    _CHAN_MNEMONICS = ("send", "recv", "close", "make-chan")

    def poison_pass(self) -> None:
        ex = self.ex
        if ex.giveups:
            g = ex.giveups[0]
            self.global_unknown = f"giveup:{g.reason}@{g.site}"
            return
        if len(ex.bodies) > MAX_COMPONENTS:
            self.global_unknown = f"too-many-bodies:{len(ex.bodies)}"
            return
        total = 0
        for body in ex.bodies:
            n = self._body_total(body.uid)
            if n != MANY:
                total += int(n)
        if total > MAX_COMPONENTS:
            self.global_unknown = f"too-many-components:{total}"
            return

        for chan in ex.channels:
            if chan.capacity is None:
                self.unknown.setdefault(chan.uid, "capacity-unknown")
            elif chan.summarized:
                self.unknown.setdefault(chan.uid, "summarized-make-site")
            elif chan.escapes:
                self.unknown.setdefault(
                    chan.uid, "escapes:" + ",".join(sorted(chan.escapes)))

        # Bodies replicated unboundedly poison everything they touch.
        for body in ex.bodies:
            if self._body_total(body.uid) != MANY:
                continue
            for op in self.body_ops.get(body.uid, ()):
                if isinstance(op.operand, ChanVal):
                    self.mark_unknown(op.operand, "unbounded-spawn")
                self.taint(op.operand)
                for case in (op.extra or {}).get("cases", ()):
                    self.mark_unknown(case.channel, "unbounded-spawn")

        for body in ex.bodies:
            if self._body_total(body.uid) == MANY:
                continue
            self._poison_body(body.uid)

    def _poison_body(self, body_uid: int) -> None:
        base_cond, base_mult = self._base(body_uid)
        multi: List[Op] = []
        for op in self.body_ops.get(body_uid, ()):
            if op.mnemonic in ("make-chan", "new-mutex", "new-rwmutex",
                               "new-waitgroup", "new-cond", "new-once",
                               "new-sema"):
                continue
            rel = _rel_mult(op.mult, base_mult)
            if rel is None:
                self._poison_op(op, "mult-indivisible")
                continue
            if rel == MANY:
                if op.mnemonic == "recv" and not op.via_select:
                    continue  # drain loop: modeled exactly
                self._poison_op(op, "unbounded-op")
            elif rel > MAX_UNROLL:
                self._poison_op(op, "unroll-cap")
            elif rel > 1:
                multi.append(op)
        if len(multi) > 1:
            # Re-serializing several ops of one finite loop is
            # order-ambiguous; only single-op loops unroll exactly.
            for op in multi:
                self._poison_op(op, "multi-op-loop")

    def _poison_op(self, op: Op, reason: str) -> None:
        if isinstance(op.operand, ChanVal):
            self.mark_unknown(op.operand, reason)
        self.taint(op.operand)
        for case in (op.extra or {}).get("cases", ()):
            self.mark_unknown(case.channel, reason)
        if op.mnemonic == "once-do":
            self.global_unknown = f"once-do-opaque@{op.site}"
        op.extra = dict(op.extra or {})
        op.extra["behavior_poisoned"] = reason

    # -- pass 2: emit ----------------------------------------------------

    def build(self) -> BehaviorModel:
        self.poison_pass()
        model = self.model
        ex = self.ex
        if self.global_unknown is not None:
            for chan in ex.channels:
                model.unknown_channels[chan.uid] = self.global_unknown
            model.notes.append(f"model-rejected: {self.global_unknown}")
            model.finalize()
            return model

        # Cond ops are not modeled; their presence taints every mutex
        # (Wait releases/reacquires the locker behind the model's back).
        if any(op.mnemonic.startswith("cond-") for op in ex.ops):
            self.tainted_mutex.update(m.uid for m in ex.mutexes)

        for chan in ex.channels:
            if chan.uid in self.unknown:
                continue
            model.channels[chan.uid] = {
                "capacity": int(chan.capacity),
                "label": chan.label,
                "site": str(chan.make_site) if chan.make_site else "",
            }
        model.unknown_channels = dict(self.unknown)
        model.wgs = [w.uid for w in ex.waitgroups
                     if w.uid not in self.tainted_wg]
        model.mutexes = [m.uid for m in ex.mutexes
                        if m.uid not in self.tainted_mutex]
        model.semas = {s.uid: int(s.count) for s in ex.semas
                      if s.uid not in self.tainted_sema
                      and s.count is not None}
        for s in ex.semas:
            if s.count is None:
                self.tainted_sema.add(s.uid)
                model.semas.pop(s.uid, None)

        self._mark_nil_select_arms()

        for body in ex.bodies:
            total = self._body_total(body.uid)
            if total == MANY:
                model.notes.append(
                    f"body {body.func_name}: unbounded replication")
                continue
            steps = self._emit_body(body.uid)
            for instance in range(int(total)):
                model.components.append(Component(
                    body.func_name, body.uid, instance, steps,
                    entry=body.spawn_site is None))
        model.finalize()
        return model

    def _mark_nil_select_arms(self) -> None:
        """Fold the extractor's per-arm nil-op records into their select.

        ``_lower_select`` emits ``nil-send``/``nil-recv`` ops for nil
        arms *before* the select op; standalone nil ops outside selects
        keep their block-forever semantics.
        """
        for op in self.ex.ops:
            if op.mnemonic != "select":
                continue
            cases = (op.extra or {}).get("cases", ())
            nil_sites = [case.site for case in cases
                         if _is_nil(case.channel)]
            if not nil_sites:
                continue
            pool = [o for o in self.body_ops.get(op.body.uid, ())
                    if o.mnemonic in ("nil-send", "nil-recv")
                    and o.seq < op.seq and id(o) not in self.consumed]
            for site in nil_sites:
                for cand in reversed(pool):
                    if cand.site == site and id(cand) not in self.consumed:
                        self.consumed.add(id(cand))
                        break

    def _emit_body(self, body_uid: int) -> List[Step]:
        base_cond, base_mult = self._base(body_uid)
        steps: List[Step] = []
        # children of this body in creation order, for go-op pairing
        child_iter: Dict[int, deque] = {}
        for body in self.ex.bodies:
            if body.parent is not None and body.parent.uid == body_uid:
                op = self.spawn_of.get(body.uid)
                if op is not None:
                    child_iter.setdefault(id(op), deque()).append(body.uid)

        for op in self.body_ops.get(body_uid, ()):
            if id(op) in self.consumed:
                continue
            if op.via_select and (op.extra or {}).get("select_op"):
                continue  # folded into its select step
            step = self._lower_op(op, base_cond, base_mult, child_iter)
            if step is None:
                continue
            rel = _rel_mult(op.mult, base_mult)
            copies = 1
            if isinstance(rel, int) and rel > 1 and \
                    not (op.extra or {}).get("behavior_poisoned") and \
                    step.kind not in ("drain", "spawn"):
                copies = rel
            steps.extend([step] * copies)
        return steps

    def _lower_op(self, op: Op, base_cond: int, base_mult,
                  child_iter: Dict[int, deque]) -> Optional[Step]:
        mn = op.mnemonic
        optional = (op.cond_depth - base_cond) > 0
        site = str(op.site)
        rel = _rel_mult(op.mult, base_mult)
        poisoned = (op.extra or {}).get("behavior_poisoned")

        if mn in ("make-chan", "new-mutex", "new-rwmutex", "new-waitgroup",
                  "new-cond", "new-once", "new-sema", "sleep", "io-wait",
                  "gosched", "work", "run-gc", "now", "alloc",
                  "set-finalizer", "recover", "defer", "set-global",
                  "get-global", "hog", "instruction"):
            return None

        if poisoned:
            return Step("maybe-halt", site=site, optional=optional)

        if mn in ("send", "recv", "close"):
            chan = op.operand
            if not isinstance(chan, ChanVal):
                return Step("maybe-halt", site=site, optional=optional)
            if chan.uid in self.unknown:
                return Step("maybe-halt", site=site, optional=optional)
            if mn == "recv" and rel == MANY:
                return Step("drain", chan=chan.uid, site=site,
                            optional=optional, may_exit=optional)
            return Step(mn, chan=chan.uid, site=site, optional=optional)

        if mn in ("nil-send", "nil-recv"):
            return Step("halt", site=site, optional=optional)
        if mn == "nil-close":
            return Step("panic", site=site, optional=optional)

        if mn == "select":
            return self._lower_select(op, optional, site)

        if mn == "go":
            spawn_op_children = child_iter.get(id(op))
            if not spawn_op_children:
                return Step("maybe-halt", site=site, optional=optional)
            child_uid = spawn_op_children.popleft()
            child_total = self._body_total(child_uid)
            if child_total == MANY:
                return Step("maybe-halt", site=site, optional=optional)
            per_parent = _rel_mult(child_total, base_mult)
            if not isinstance(per_parent, int) or per_parent < 1:
                return Step("maybe-halt", site=site, optional=optional)
            return Step("spawn", site=site, optional=optional,
                        spawn_body=child_uid, spawn_count=per_parent)

        if mn in ("wg-add", "wg-done", "wg-wait"):
            wg = op.operand
            if not isinstance(wg, WgVal) or wg.uid in self.tainted_wg:
                return Step("maybe-halt", site=site, optional=optional)
            if mn == "wg-add":
                delta = (op.extra or {}).get("delta")
                if not isinstance(delta, int):
                    self.tainted_wg.add(wg.uid)
                    return Step("maybe-halt", site=site, optional=optional)
                return Step("wg-add", obj=wg.uid, delta=delta, site=site,
                            optional=optional)
            return Step(mn, obj=wg.uid, site=site, optional=optional)

        if mn in ("lock", "unlock", "rlock", "runlock"):
            mx = op.operand
            if not isinstance(mx, MutexVal) or \
                    mx.uid in self.tainted_mutex:
                return Step("maybe-halt", site=site, optional=optional)
            return Step(mn, obj=mx.uid, site=site, optional=optional)

        if mn in ("sem-acquire", "sem-release"):
            sema = op.operand
            if not isinstance(sema, SemaVal) or \
                    sema.uid in self.tainted_sema:
                return Step("maybe-halt", site=site, optional=optional)
            return Step(mn, obj=sema.uid, site=site, optional=optional)

        if mn == "panic":
            return Step("panic", site=site, optional=optional)

        # cond-wait/signal/broadcast, once-do, unknown mnemonics.
        return Step("maybe-halt", site=site, optional=optional)

    def _lower_select(self, op: Op, optional: bool, site: str) -> Step:
        extra = op.extra or {}
        arms: List[Tuple[str, Optional[int]]] = []
        for case in extra.get("cases", ()):
            chan = case.channel
            if _is_nil(chan):
                arms.append((case.kind, None))
            elif isinstance(chan, ChanVal) and chan.uid not in self.unknown:
                arms.append((case.kind, chan.uid))
            else:
                # One opaque arm makes the whole choice opaque; poison
                # the resolvable siblings too (their traffic may route
                # through this select unpredictably).
                for other in extra.get("cases", ()):
                    self.mark_unknown(other.channel, "opaque-select-arm")
                return Step("maybe-halt", site=site, optional=optional)
        return Step("select", arms=arms, default=bool(extra.get("default")),
                    site=site, optional=optional)


def _is_nil(val) -> bool:
    from repro.staticcheck.model import ConstVal
    return isinstance(val, ConstVal) and val.value is None


def build_model(ex: Extraction) -> BehaviorModel:
    """Lower an extraction to its closed behavioral trace term."""
    return _ModelBuilder(ex).build()


# ---------------------------------------------------------------------------
# Synchronous-composition exploration
# ---------------------------------------------------------------------------


class ExploreResult:
    """Outcome of one exhaustive exploration of a model."""

    __slots__ = ("complete", "stuck", "counterexamples")

    def __init__(self) -> None:
        self.complete = True
        #: chan uid -> "definite" | "may": a terminal state exists with a
        #: component blocked on this channel.
        self.stuck: Dict[int, str] = {}
        #: chan uid -> action-label trace to a definite stuck terminal.
        self.counterexamples: Dict[int, List[str]] = {}


class _Explorer:
    def __init__(self, model: BehaviorModel):
        self.model = model
        self.chan_ids = sorted(model.channels)
        self.chan_index = {uid: i for i, uid in enumerate(self.chan_ids)}
        self.wg_ids = sorted(model.wgs)
        self.wg_index = {uid: i for i, uid in enumerate(self.wg_ids)}
        self.mx_ids = sorted(model.mutexes)
        self.mx_index = {uid: i for i, uid in enumerate(self.mx_ids)}
        self.sema_ids = sorted(model.semas)
        self.sema_index = {uid: i for i, uid in enumerate(self.sema_ids)}

    # -- state layout ----------------------------------------------------
    # (comp_positions, chan (count, closed) pairs, wg counters,
    #  mutex words [-1 writer, >=0 readers], sema counts)

    def initial_state(self) -> tuple:
        positions = []
        for comp in self.model.components:
            if comp.entry:
                positions.append(0 if comp.steps else _DONE)
            else:
                positions.append(_INACTIVE)
        chans = tuple((0, False) for _ in self.chan_ids)
        wgs = tuple(0 for _ in self.wg_ids)
        mxs = tuple(0 for _ in self.mx_ids)
        semas = tuple(self.model.semas[uid] for uid in self.sema_ids)
        return (tuple(positions), chans, wgs, mxs, semas)

    def _advance(self, state: tuple, i: int, *,
                 chan: Optional[Tuple[int, Tuple[int, bool]]] = None,
                 wg: Optional[Tuple[int, int]] = None,
                 mx: Optional[Tuple[int, int]] = None,
                 sema: Optional[Tuple[int, int]] = None,
                 move: bool = True, to: Optional[int] = None,
                 also: Optional[Tuple[int, Optional[int]]] = None,
                 activate: Sequence[int] = ()) -> tuple:
        positions, chans, wgs, mxs, semas = state
        positions = list(positions)
        comp = self.model.components[i]
        if to is not None:
            positions[i] = to
        elif move:
            nxt = positions[i] + 1
            positions[i] = _DONE if nxt >= len(comp.steps) else nxt
        if also is not None:
            j, jto = also
            if jto is not None:
                positions[j] = jto
            else:
                jcomp = self.model.components[j]
                nxt = positions[j] + 1
                positions[j] = _DONE if nxt >= len(jcomp.steps) else nxt
        for idx in activate:
            target = self.model.components[idx]
            positions[idx] = 0 if target.steps else _DONE
        if chan is not None:
            idx, value = chan
            chans = tuple(value if k == idx else c
                          for k, c in enumerate(chans))
        if wg is not None:
            idx, value = wg
            wgs = tuple(value if k == idx else c for k, c in enumerate(wgs))
        if mx is not None:
            idx, value = mx
            mxs = tuple(value if k == idx else c for k, c in enumerate(mxs))
        if sema is not None:
            idx, value = sema
            semas = tuple(value if k == idx else c
                          for k, c in enumerate(semas))
        return (tuple(positions), chans, wgs, mxs, semas)

    def _spawn_targets(self, comp_idx: int, step: Step) -> List[int]:
        comp = self.model.components[comp_idx]
        instances = self.model.instances_of(step.spawn_body or -1)
        lo = comp.instance * step.spawn_count
        return instances[lo:lo + step.spawn_count]

    # -- communication readiness -----------------------------------------

    def _receivers(self, state: tuple, chan_uid: int
                   ) -> List[Tuple[int, str, int]]:
        """Components able to take a rendezvous receive on ``chan_uid``:
        (component index, mode, arm index)."""
        positions = state[0]
        out = []
        for j, comp in enumerate(self.model.components):
            pos = positions[j]
            if pos < 0:
                continue
            step = comp.steps[pos]
            if step.kind in ("recv", "drain") and step.chan == chan_uid:
                out.append((j, step.kind, -1))
            elif step.kind == "select":
                for a, (kind, c) in enumerate(step.arms):
                    if kind == "recv" and c == chan_uid:
                        out.append((j, "select", a))
        return out

    def _senders(self, state: tuple, chan_uid: int
                 ) -> List[Tuple[int, str, int]]:
        positions = state[0]
        out = []
        for j, comp in enumerate(self.model.components):
            pos = positions[j]
            if pos < 0:
                continue
            step = comp.steps[pos]
            if step.kind == "send" and step.chan == chan_uid:
                out.append((j, "send", -1))
            elif step.kind == "select":
                for a, (kind, c) in enumerate(step.arms):
                    if kind == "send" and c == chan_uid:
                        out.append((j, "select", a))
        return out

    def _arm_enabled(self, state: tuple, kind: str,
                     chan_uid: Optional[int], self_idx: int) -> bool:
        if chan_uid is None:
            return False  # nil arm: never selectable
        idx = self.chan_index[chan_uid]
        count, closed = state[1][idx]
        cap = self.model.channels[chan_uid]["capacity"]
        if kind == "recv":
            if count > 0 or closed:
                return True
            if cap == 0:
                return any(j != self_idx
                           for j, _, _ in self._senders(state, chan_uid))
            return False
        # send arm
        if closed:
            return True  # selectable, then panics
        if cap > 0:
            return count < cap
        return any(j != self_idx
                   for j, _, _ in self._receivers(state, chan_uid))

    # -- transition relation ---------------------------------------------

    def transitions(self, state: tuple
                    ) -> List[Tuple[str, tuple, bool]]:
        """All (label, successor, is_may) moves from ``state``."""
        if state == _PANIC_STATE:
            return []
        out: List[Tuple[str, tuple, bool]] = []
        positions = state[0]
        for i, comp in enumerate(self.model.components):
            pos = positions[i]
            if pos < 0:
                continue
            step = comp.steps[pos]
            may = step.optional
            if step.optional:
                out.append((f"{comp.label}: skip {step.kind}",
                            self._advance(state, i), True))
            self._step_moves(state, i, comp, step, may, out)
        return out

    def _step_moves(self, state: tuple, i: int, comp: Component,
                    step: Step, may: bool,
                    out: List[Tuple[str, tuple, bool]]) -> None:
        model = self.model
        kind = step.kind
        label = comp.label

        if kind in ("tau", "spawn"):
            activate = self._spawn_targets(i, step) if kind == "spawn" else ()
            out.append((f"{label}: {kind}",
                        self._advance(state, i, activate=activate), may))
            return

        if kind in ("send", "recv", "drain", "close"):
            uid = step.chan
            idx = self.chan_index[uid]
            count, closed = state[1][idx]
            cap = model.channels[uid]["capacity"]
            name = model.chan_name(uid)
            if kind == "send":
                if closed:
                    out.append((f"{label}: send {name} (closed: panic)",
                                _PANIC_STATE, may))
                elif cap > 0 and count < cap:
                    out.append((f"{label}: send {name}",
                                self._advance(state, i,
                                              chan=(idx, (count + 1, closed))),
                                may))
                elif cap == 0:
                    self._rendezvous(state, i, uid, idx, may, out)
            elif kind == "recv":
                if count > 0:
                    out.append((f"{label}: recv {name}",
                                self._advance(state, i,
                                              chan=(idx, (count - 1, closed))),
                                may))
                elif closed:
                    out.append((f"{label}: recv {name} (closed)",
                                self._advance(state, i), may))
                # cap == 0 rendezvous is generated from the sender side.
            elif kind == "drain":
                if count > 0:
                    out.append((f"{label}: drain {name}",
                                self._advance(
                                    state, i,
                                    chan=(idx, (count - 1, closed)),
                                    move=False),
                                may))
                elif closed:
                    out.append((f"{label}: drain {name} done",
                                self._advance(state, i), may))
                if step.may_exit and not (closed and count == 0):
                    out.append((f"{label}: drain {name} early-exit",
                                self._advance(state, i), True))
            else:  # close
                if closed:
                    out.append((f"{label}: close {name} (again: panic)",
                                _PANIC_STATE, may))
                else:
                    out.append((f"{label}: close {name}",
                                self._advance(state, i,
                                              chan=(idx, (count, True))),
                                may))
            return

        if kind == "select":
            any_armed = False
            for a, (akind, uid) in enumerate(step.arms):
                if not self._arm_enabled(state, akind, uid, i):
                    continue
                any_armed = True
                idx = self.chan_index[uid]
                count, closed = state[1][idx]
                cap = model.channels[uid]["capacity"]
                name = model.chan_name(uid)
                if akind == "recv":
                    if count > 0:
                        out.append((f"{label}: select recv {name}",
                                    self._advance(
                                        state, i,
                                        chan=(idx, (count - 1, closed))),
                                    may))
                    elif closed:
                        out.append((f"{label}: select recv {name} (closed)",
                                    self._advance(state, i), may))
                    else:  # cap==0 rendezvous; generated from sender side
                        pass
                else:  # send arm
                    if closed:
                        out.append(
                            (f"{label}: select send {name} (closed: panic)",
                             _PANIC_STATE, may))
                    elif cap > 0 and count < cap:
                        out.append((f"{label}: select send {name}",
                                    self._advance(
                                        state, i,
                                        chan=(idx, (count + 1, closed))),
                                    may))
                    elif cap == 0:
                        self._rendezvous(state, i, uid, idx, may, out,
                                         from_select=True)
            if step.default and not any_armed:
                out.append((f"{label}: select default",
                            self._advance(state, i), may))
            return

        if kind == "wg-add":
            widx = self.wg_index[step.obj]
            value = state[2][widx] + step.delta
            if value < 0:
                out.append((f"{label}: wg-add {step.delta} (negative: panic)",
                            _PANIC_STATE, may))
            else:
                out.append((f"{label}: wg-add {step.delta}",
                            self._advance(state, i, wg=(widx, value)), may))
            return
        if kind == "wg-done":
            widx = self.wg_index[step.obj]
            value = state[2][widx] - 1
            if value < 0:
                out.append((f"{label}: wg-done (negative: panic)",
                            _PANIC_STATE, may))
            else:
                out.append((f"{label}: wg-done",
                            self._advance(state, i, wg=(widx, value)), may))
            return
        if kind == "wg-wait":
            widx = self.wg_index[step.obj]
            if state[2][widx] == 0:
                out.append((f"{label}: wg-wait done",
                            self._advance(state, i), may))
            return

        if kind in ("lock", "unlock", "rlock", "runlock"):
            midx = self.mx_index[step.obj]
            word = state[3][midx]
            if kind == "lock":
                if word == 0:
                    out.append((f"{label}: lock",
                                self._advance(state, i, mx=(midx, -1)), may))
            elif kind == "unlock":
                if word == -1:
                    out.append((f"{label}: unlock",
                                self._advance(state, i, mx=(midx, 0)), may))
                else:
                    out.append((f"{label}: unlock (unlocked: panic)",
                                _PANIC_STATE, may))
            elif kind == "rlock":
                if word >= 0:
                    out.append((f"{label}: rlock",
                                self._advance(state, i, mx=(midx, word + 1)),
                                may))
            else:  # runlock
                if word > 0:
                    out.append((f"{label}: runlock",
                                self._advance(state, i, mx=(midx, word - 1)),
                                may))
                else:
                    out.append((f"{label}: runlock (unlocked: panic)",
                                _PANIC_STATE, may))
            return

        if kind == "sem-acquire":
            sidx = self.sema_index[step.obj]
            count = state[4][sidx]
            if count > 0:
                out.append((f"{label}: sem-acquire",
                            self._advance(state, i, sema=(sidx, count - 1)),
                            may))
            return
        if kind == "sem-release":
            sidx = self.sema_index[step.obj]
            out.append((f"{label}: sem-release",
                        self._advance(state, i,
                                      sema=(sidx, state[4][sidx] + 1)),
                        may))
            return

        if kind == "maybe-halt":
            out.append((f"{label}: opaque op completes",
                        self._advance(state, i), True))
            out.append((f"{label}: opaque op parks forever",
                        self._advance(state, i, to=_HALTED), True))
            return
        if kind == "halt":
            return  # blocked forever on a nil channel (B(g) = {eps})
        if kind == "panic":
            out.append((f"{label}: panic", _PANIC_STATE, may))
            return

    def _rendezvous(self, state: tuple, i: int, uid: int, idx: int,
                    may: bool, out: List[Tuple[str, tuple, bool]],
                    from_select: bool = False) -> None:
        """Unbuffered hand-off: pair sender ``i`` with each ready
        receiver; the drain receiver stays in place."""
        name = self.model.chan_name(uid)
        sender = self.model.components[i].label
        for j, mode, arm in self._receivers(state, uid):
            if j == i:
                continue
            recv_comp = self.model.components[j]
            recv_may = may or recv_comp.steps[state[0][j]].optional
            if mode == "drain":
                nxt = self._advance(state, i, also=(j, state[0][j]))
            else:
                nxt = self._advance(state, i, also=(j, None))
            tag = "select send" if from_select else "send"
            out.append((f"{sender}: {tag} {name} -> {recv_comp.label}",
                        nxt, recv_may))


def explore(model: BehaviorModel) -> ExploreResult:
    """Exhaustively explore the composition; classify stuck terminals.

    Two breadth-first passes share one transition relation: the first
    follows only definite moves (no optional skips/takes, no opaque-op
    branches, no early drain exits), the second follows everything.
    A terminal state with a component blocked at a channel step marks
    that channel stuck — ``definite`` when the state is reachable by the
    first pass, ``may`` otherwise.  The exploration is incomplete past
    :data:`MAX_STATES` states or :data:`MAX_TRANSITIONS` transitions.
    """
    ex = _Explorer(model)
    result = ExploreResult()
    init = ex.initial_state()

    definite: Dict[tuple, Optional[Tuple[tuple, str]]] = {init: None}
    queue = deque([init])
    budget = [MAX_TRANSITIONS]

    def bfs(follow_may: bool, reach: Dict[tuple, Optional[Tuple[tuple, str]]],
            queue: deque) -> bool:
        while queue:
            if len(reach) > MAX_STATES or budget[0] <= 0:
                return False
            state = queue.popleft()
            for label, nxt, is_may in ex.transitions(state):
                budget[0] -= 1
                if is_may and not follow_may:
                    continue
                if nxt not in reach:
                    reach[nxt] = (state, label)
                    queue.append(nxt)
        return True

    complete = bfs(False, definite, queue)
    every: Dict[tuple, Optional[Tuple[tuple, str]]] = dict(definite)
    complete = bfs(True, every, deque(every)) and complete
    result.complete = complete
    if not complete:
        return result

    for state in every:
        if state == _PANIC_STATE or ex.transitions(state):
            continue
        stuck_here = _stuck_channels(model, state)
        if not stuck_here:
            continue
        is_definite = state in definite
        for uid in stuck_here:
            prev = result.stuck.get(uid)
            if is_definite:
                result.stuck[uid] = "definite"
                if uid not in result.counterexamples:
                    result.counterexamples[uid] = _trace_to(definite, state)
            elif prev is None:
                result.stuck[uid] = "may"
    return result


def _stuck_channels(model: BehaviorModel, state: tuple) -> List[int]:
    """Channels some component is blocked on in a terminal state."""
    stuck: List[int] = []
    positions = state[0]
    for i, comp in enumerate(model.components):
        pos = positions[i]
        if pos < 0:
            continue
        step = comp.steps[pos]
        if step.kind in ("send", "recv", "drain") and step.chan is not None:
            stuck.append(step.chan)
        elif step.kind == "select":
            stuck.extend(c for _k, c in step.arms if c is not None)
    return sorted(set(stuck))


def _trace_to(reach: Dict[tuple, Optional[Tuple[tuple, str]]],
              state: tuple) -> List[str]:
    labels: List[str] = []
    cursor = state
    while True:
        parent = reach.get(cursor)
        if parent is None:
            break
        cursor, label = parent
        labels.append(label)
    labels.reverse()
    return labels


# ---------------------------------------------------------------------------
# Verdicts and public API
# ---------------------------------------------------------------------------


class ChannelVerdict:
    """Outcome of the behavioral check for one channel."""

    __slots__ = ("chan_uid", "make_site", "capacity", "label", "verdict",
                 "reason", "counterexample")

    def __init__(self, chan_uid: int, make_site: str, capacity: Optional[int],
                 label: Optional[str], verdict: str, reason: str = "",
                 counterexample: Optional[List[str]] = None):
        self.chan_uid = chan_uid
        self.make_site = make_site
        self.capacity = capacity
        self.label = label
        self.verdict = verdict
        self.reason = reason
        self.counterexample = counterexample or []

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "chan_uid": self.chan_uid,
            "make_site": self.make_site,
            "capacity": self.capacity,
            "label": self.label,
            "verdict": self.verdict,
        }
        if self.reason:
            d["reason"] = self.reason
        if self.counterexample:
            d["counterexample"] = list(self.counterexample)
        return d

    def __repr__(self) -> str:
        return f"<ChannelVerdict {self.make_site} {self.verdict}>"


class BehaviorAnalysis:
    """Behavioral-type analysis of one entry function."""

    __slots__ = ("entry_name", "file", "model", "result", "verdicts",
                 "notes")

    def __init__(self, entry_name: str, file: str, model: BehaviorModel,
                 result: Optional[ExploreResult],
                 verdicts: List[ChannelVerdict], notes: List[str]):
        self.entry_name = entry_name
        self.file = file
        self.model = model
        self.result = result
        self.verdicts = verdicts
        self.notes = notes

    @property
    def proven(self) -> List[ChannelVerdict]:
        return [v for v in self.verdicts if v.verdict == PROVEN]

    @property
    def potential(self) -> List[ChannelVerdict]:
        return [v for v in self.verdicts if v.verdict == POTENTIAL]

    @property
    def unknown(self) -> List[ChannelVerdict]:
        return [v for v in self.verdicts if v.verdict == UNPROVEN]


def _site_str(site: Any) -> str:
    return f"{site.file}:{site.line}" if site is not None else "<unknown>"


def analyze_extraction_behavior(ex: Extraction) -> BehaviorAnalysis:
    """Infer the behavioral model for ``ex`` and check every channel."""
    model = build_model(ex)
    chan_sites: Dict[int, Tuple[str, Optional[int], Optional[str]]] = {}
    for chan in ex.channels:
        chan_sites[chan.uid] = (_site_str(chan.make_site), chan.capacity,
                                chan.label)

    verdicts: List[ChannelVerdict] = []
    result: Optional[ExploreResult] = None

    eligible = sorted(model.channels)
    if eligible:
        result = explore(model)

    for uid in sorted(chan_sites):
        site, capacity, label = chan_sites[uid]
        if uid in model.unknown_channels:
            verdicts.append(ChannelVerdict(
                uid, site, capacity, label, UNPROVEN,
                reason=model.unknown_channels[uid]))
            continue
        if uid not in model.channels:
            verdicts.append(ChannelVerdict(
                uid, site, capacity, label, UNPROVEN,
                reason="not-modeled"))
            continue
        assert result is not None
        if not result.complete:
            verdicts.append(ChannelVerdict(
                uid, site, capacity, label, UNPROVEN,
                reason="state-space-cap"))
            continue
        stuck = result.stuck.get(uid)
        if stuck is None:
            verdicts.append(ChannelVerdict(
                uid, site, capacity, label, PROVEN,
                reason="no-stuck-terminal"))
        elif stuck == "definite":
            verdicts.append(ChannelVerdict(
                uid, site, capacity, label, POTENTIAL,
                reason="definite-stuck-terminal",
                counterexample=result.counterexamples.get(uid)))
        else:
            verdicts.append(ChannelVerdict(
                uid, site, capacity, label, UNPROVEN,
                reason="may-branch-leak"))
    return BehaviorAnalysis(ex.entry_name, ex.file, model, result,
                            verdicts, list(model.notes))


def analyze_callable_behavior(fn, name: Optional[str] = None
                              ) -> BehaviorAnalysis:
    """Extract ``fn`` and run the behavioral check (test convenience)."""
    from repro.staticcheck.extractor import extract_callable

    return analyze_extraction_behavior(extract_callable(fn, name=name))
