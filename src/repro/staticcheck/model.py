"""Data model of the static partial-deadlock analyzer.

The extractor lowers goroutine-body generator functions into streams of
abstract :class:`Op` records over abstract values (:class:`ChanVal`,
:class:`MutexVal`, ...).  The rule engine never sees Python ASTs — only
these records, keyed by the instruction set's stable mnemonics
(:mod:`repro.runtime.instructions`).

Multiplicities are ``int`` for statically-known counts and
:data:`MANY` (``math.inf``) for loop-unbounded ops; ``None`` capacities
mean "statically unknown".
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple, Union

#: Loop-unbounded multiplicity.
MANY = math.inf

Mult = Union[int, float]

#: Diagnostic severities, ranked.  ``unknown`` is a *verdict*, not a
#: severity: a function the analyzer soundly gave up on.
INFO, WARNING, ERROR = "info", "warning", "error"
SEVERITY_RANK = {INFO: 0, WARNING: 1, ERROR: 2}

#: Function verdicts.
CLEAN, SUSPECT, LEAKY, UNKNOWN = "clean", "suspect", "leaky", "unknown"


class Site:
    """A source location: file plus 1-based line."""

    __slots__ = ("file", "line")

    def __init__(self, file: str, line: int):
        self.file = file
        self.line = line

    def __str__(self) -> str:
        return f"{self.file}:{self.line}"

    def __repr__(self) -> str:
        return f"<site {self}>"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Site)
                and (self.file, self.line) == (other.file, other.line))

    def __hash__(self) -> int:
        return hash((self.file, self.line))


class BodyCtx:
    """One goroutine body instance: the entry body or a spawned one."""

    __slots__ = ("uid", "func_name", "spawn_site", "parent")

    def __init__(self, uid: int, func_name: str,
                 spawn_site: Optional[Site] = None,
                 parent: Optional["BodyCtx"] = None):
        self.uid = uid
        self.func_name = func_name
        self.spawn_site = spawn_site
        self.parent = parent

    def spawn_steps(self) -> List[Tuple[Site, str]]:
        """(spawn site, spawned function name) pairs, entry first."""
        steps: List[Tuple[Site, str]] = []
        ctx: Optional[BodyCtx] = self
        while ctx is not None and ctx.spawn_site is not None:
            steps.append((ctx.spawn_site, ctx.func_name))
            ctx = ctx.parent
        steps.reverse()
        return steps

    def __repr__(self) -> str:
        where = f"spawned@{self.spawn_site}" if self.spawn_site else "entry"
        return f"<body {self.func_name} [{where}]>"


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------


class Val:
    """Base abstract value."""

    __slots__ = ()


class UnknownVal(Val):
    __slots__ = ("reason",)

    def __init__(self, reason: str = ""):
        self.reason = reason

    def __repr__(self) -> str:
        return f"<unknown {self.reason}>" if self.reason else "<unknown>"




class ConstVal(Val):
    """A statically-known Python constant."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __repr__(self) -> str:
        return f"<const {self.value!r}>"


class ChanVal(Val):
    """An abstract channel.  One value may stand for every channel
    created at a loop make-site (summarized)."""

    __slots__ = ("uid", "make_site", "capacity", "label", "escapes",
                 "summarized")

    def __init__(self, uid: int, make_site: Optional[Site],
                 capacity: Optional[int], label: str = "",
                 summarized: bool = False):
        self.uid = uid
        self.make_site = make_site
        self.capacity = capacity
        self.label = label
        #: Escape reasons: "returned", "passed-unknown", "stored-global",
        #: "stored-attr".  "returned"/"passed-unknown" suppress leak
        #: rules (the unseen code may discharge the channel).
        self.escapes: List[str] = []
        self.summarized = summarized

    #: Escape reasons that make leak verdicts unsound for this channel:
    #: unseen code (or a dynamically-chosen alias) may discharge it.
    SUPPRESSING = ("returned", "passed-unknown", "dynamic-alias",
                   "sent-as-value")

    @property
    def suppressed(self) -> bool:
        return any(e in self.SUPPRESSING for e in self.escapes)

    def __repr__(self) -> str:
        cap = "?" if self.capacity is None else self.capacity
        return f"<chan#{self.uid} cap={cap} make={self.make_site}>"


class MutexVal(Val):
    __slots__ = ("uid", "site", "rw")

    def __init__(self, uid: int, site: Optional[Site], rw: bool = False):
        self.uid = uid
        self.site = site
        self.rw = rw

    def __repr__(self) -> str:
        return f"<{'rw' if self.rw else ''}mutex#{self.uid}>"


class WgVal(Val):
    __slots__ = ("uid", "site")

    def __init__(self, uid: int, site: Optional[Site]):
        self.uid = uid
        self.site = site

    def __repr__(self) -> str:
        return f"<waitgroup#{self.uid}>"


class CondVal(Val):
    __slots__ = ("uid", "site", "locker")

    def __init__(self, uid: int, site: Optional[Site],
                 locker: Optional[MutexVal]):
        self.uid = uid
        self.site = site
        self.locker = locker

    def __repr__(self) -> str:
        return f"<cond#{self.uid}>"


class SemaVal(Val):
    __slots__ = ("uid", "site", "count")

    def __init__(self, uid: int, site: Optional[Site],
                 count: Optional[int]):
        self.uid = uid
        self.site = site
        self.count = count

    def __repr__(self) -> str:
        return f"<sema#{self.uid} count={self.count}>"


class OnceVal(Val):
    __slots__ = ("uid",)

    def __init__(self, uid: int):
        self.uid = uid


class TupleVal(Val):
    __slots__ = ("elems",)

    def __init__(self, elems: List[Val]):
        self.elems = list(elems)


class ListVal(Val):
    """A list; ``exact`` means the element list is the precise contents
    (loop-built lists are summarized and inexact)."""

    __slots__ = ("elems", "exact")

    def __init__(self, elems: Optional[List[Val]] = None, exact: bool = True):
        self.elems = list(elems or [])
        self.exact = exact


class MapVal(Val):
    """Dict / Struct / GoMap with constant keys tracked."""

    __slots__ = ("entries", "exact")

    def __init__(self, entries: Optional[Dict[Any, Val]] = None,
                 exact: bool = True):
        self.entries = dict(entries or {})
        self.exact = exact


class BoxVal(Val):
    __slots__ = ("value",)

    def __init__(self, value: Val):
        self.value = value


class ObjVal(Val):
    """Opaque heap object (Blob and friends)."""

    __slots__ = ("kind",)

    def __init__(self, kind: str = "object"):
        self.kind = kind


class RangeVal(Val):
    """``range(n)`` with statically-known or unknown trip count."""

    __slots__ = ("count",)

    def __init__(self, count: Optional[int]):
        self.count = count


class CaseVal(Val):
    """A select arm: ``("send"|"recv", channel-ish value)``."""

    __slots__ = ("kind", "channel", "site")

    def __init__(self, kind: str, channel: Val, site: Site):
        self.kind = kind
        self.channel = channel
        self.site = site


class InstrVal(Val):
    """A constructed-but-not-yet-yielded instruction."""

    __slots__ = ("mnemonic", "args", "kwargs", "site")

    def __init__(self, mnemonic: str, args: List[Val],
                 kwargs: Dict[str, Val], site: Site):
        self.mnemonic = mnemonic
        self.args = args
        self.kwargs = kwargs
        self.site = site


class FuncVal(Val):
    """A resolvable function: AST plus defining environment."""

    __slots__ = ("node", "env", "qualname", "file", "defaults",
                 "is_generator", "code_key")

    def __init__(self, node, env, qualname: str, file: str,
                 defaults: Optional[Dict[str, Val]] = None,
                 is_generator: bool = False,
                 code_key: Optional[Any] = None):
        self.node = node          # ast.FunctionDef
        self.env = env            # Env at definition point
        self.qualname = qualname
        self.file = file
        self.defaults = defaults or {}
        self.is_generator = is_generator
        self.code_key = code_key  # identity for recursion guards

    def __repr__(self) -> str:
        return f"<func {self.qualname}>"


class GoroutineVal(Val):
    __slots__ = ("body",)

    def __init__(self, body: BodyCtx):
        self.body = body


# ---------------------------------------------------------------------------
# Lowered ops
# ---------------------------------------------------------------------------


class Op:
    """One lowered concurrency instruction occurrence."""

    __slots__ = ("mnemonic", "site", "body", "seq", "cond_depth",
                 "mult", "via_select", "select_alternatives",
                 "operand", "value", "extra", "held", "unreachable",
                 "definitely_blocked")

    def __init__(self, mnemonic: str, site: Site, body: BodyCtx, seq: int,
                 cond_depth: int, mult: Mult, operand: Optional[Val] = None,
                 value: Optional[Val] = None, via_select: bool = False,
                 select_alternatives: bool = False,
                 extra: Optional[Dict[str, Any]] = None,
                 held: Tuple[Tuple[int, str], ...] = ()):
        self.mnemonic = mnemonic
        self.site = site
        self.body = body
        self.seq = seq
        self.cond_depth = cond_depth
        self.mult = mult                      # 1, n, or MANY
        self.operand = operand                # channel / mutex / wg / ...
        self.value = value                    # payload (Send value)
        self.via_select = via_select
        self.select_alternatives = select_alternatives
        self.extra = extra or {}
        self.held = held                      # ((mutex uid, "w"|"r"), ...)
        self.unreachable = False              # set by the rules fixpoint
        self.definitely_blocked = False

    @property
    def conditional(self) -> bool:
        return self.cond_depth > 0

    @property
    def guaranteed(self) -> bool:
        """Runs on every execution (of its body) at least once."""
        return not self.conditional and not self.unreachable

    def __repr__(self) -> str:
        flags = []
        if self.conditional:
            flags.append("cond")
        if self.mult == MANY:
            flags.append("loop")
        elif self.mult != 1:
            flags.append(f"x{self.mult}")
        if self.via_select:
            flags.append("select")
        if self.unreachable:
            flags.append("unreachable")
        tag = f" [{','.join(flags)}]" if flags else ""
        return f"<op {self.mnemonic}@{self.site}{tag}>"


class GiveUp:
    """A point where the analysis soundly gave up."""

    __slots__ = ("site", "reason", "detail")

    def __init__(self, site: Site, reason: str, detail: str = ""):
        self.site = site
        self.reason = reason      # "dynamic-channel-choice", ...
        self.detail = detail

    def __repr__(self) -> str:
        return f"<give-up {self.reason}@{self.site}>"


class Extraction:
    """Everything the extractor learned about one entry function."""

    __slots__ = ("entry_name", "file", "line", "end_line", "ops", "bodies",
                 "channels", "mutexes", "waitgroups", "conds", "semas",
                 "giveups", "returned")

    def __init__(self, entry_name: str, file: str, line: int,
                 end_line: int = 0):
        self.entry_name = entry_name
        self.file = file
        self.line = line
        self.end_line = end_line or line
        self.ops: List[Op] = []
        self.bodies: List[BodyCtx] = []
        self.channels: List[ChanVal] = []
        self.mutexes: List[MutexVal] = []
        self.waitgroups: List[WgVal] = []
        self.conds: List[CondVal] = []
        self.semas: List[SemaVal] = []
        self.giveups: List[GiveUp] = []
        self.returned: Optional[Val] = None

    def ops_for(self, val: Val, mnemonics: Tuple[str, ...],
                include_unreachable: bool = False) -> List[Op]:
        uid = getattr(val, "uid", None)
        out = []
        for op in self.ops:
            if op.mnemonic not in mnemonics:
                continue
            if getattr(op.operand, "uid", -1) != uid:
                continue
            if op.unreachable and not include_unreachable:
                continue
            out.append(op)
        return out

    def __repr__(self) -> str:
        return (f"<extraction {self.entry_name} ops={len(self.ops)} "
                f"bodies={len(self.bodies)} giveups={len(self.giveups)}>")


class Diagnostic:
    """One finding: rule id, severity, anchor site, provenance chain."""

    __slots__ = ("rule", "severity", "site", "function", "message",
                 "provenance", "channel_label", "expected", "suppressed")

    def __init__(self, rule: str, severity: str, site: Site, function: str,
                 message: str,
                 provenance: Optional[List[Tuple[str, str, str]]] = None,
                 channel_label: str = ""):
        self.rule = rule
        self.severity = severity
        self.site = site
        self.function = function
        self.message = message
        #: ``(role, site-str, detail)`` steps, e.g. make -> go -> send.
        self.provenance = provenance or []
        self.channel_label = channel_label
        self.expected = False     # matched a `# vet: expect` annotation
        self.suppressed = False   # matched a `# vet: ok` annotation

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "site": str(self.site),
            "function": self.function,
            "message": self.message,
            "provenance": [
                {"role": role, "site": site, "detail": detail}
                for role, site, detail in self.provenance
            ],
            "channel_label": self.channel_label,
            "expected": self.expected,
            "suppressed": self.suppressed,
        }

    def format(self) -> str:
        mark = ""
        if self.expected:
            mark = " (expected)"
        elif self.suppressed:
            mark = " (suppressed)"
        lines = [f"{self.site}: {self.severity}: {self.rule}: "
                 f"{self.message}{mark}"]
        for role, site, detail in self.provenance:
            text = f"    {role:<10s} {site}"
            if detail:
                text += f"  ({detail})"
            lines.append(text)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<diag {self.rule} [{self.severity}] at {self.site}>"


class FunctionReport:
    """Analysis outcome for one entry function."""

    __slots__ = ("name", "file", "line", "end_line", "diagnostics",
                 "giveups", "escaped_channels", "stats")

    def __init__(self, name: str, file: str, line: int, end_line: int = 0):
        self.name = name
        self.file = file
        self.line = line
        self.end_line = end_line or line
        self.diagnostics: List[Diagnostic] = []
        self.giveups: List[GiveUp] = []
        self.escaped_channels: int = 0
        self.stats: Dict[str, int] = {}

    @property
    def verdict(self) -> str:
        worst = INFO
        for diag in self.diagnostics:
            if diag.suppressed:
                continue
            if SEVERITY_RANK[diag.severity] > SEVERITY_RANK[worst]:
                worst = diag.severity
        if worst == ERROR:
            return LEAKY
        if worst == WARNING:
            return SUSPECT
        if self.giveups:
            return UNKNOWN
        return CLEAN

    def rules_hit(self) -> List[str]:
        return sorted({d.rule for d in self.diagnostics if not d.suppressed})

    def to_dict(self) -> Dict[str, Any]:
        return {
            "function": self.name,
            "file": self.file,
            "line": self.line,
            "verdict": self.verdict,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "giveups": [
                {"site": str(g.site), "reason": g.reason, "detail": g.detail}
                for g in self.giveups
            ],
            "escaped_channels": self.escaped_channels,
            "stats": dict(sorted(self.stats.items())),
        }

    def __repr__(self) -> str:
        return (f"<fn-report {self.name} verdict={self.verdict} "
                f"diags={len(self.diagnostics)}>")
