"""Goroutine descriptors: the simulated ``*g`` objects.

Each goroutine wraps a Python generator (the body).  Its *stack* is the
chain of live generator frames: the collector scans frame locals for heap
references, which is the analog of Go's precise stack scanning.  Blocked
goroutines record a wait reason and the set ``B(g)`` of concurrency
objects they are blocked on — the inputs of the GOLF liveness fixpoint.

The module also implements the runtime's ``*g`` reuse pool semantics
(paper, section 5.4): descriptors of dead goroutines are recycled, and
GOLF adds a special cleanup pass that resets the extra fields a blocking
operation may have left behind before a deadlocked descriptor can rejoin
the pool.
"""

from __future__ import annotations

import enum
import sys
from typing import Any, List, Optional, Tuple, TYPE_CHECKING

from repro.runtime.objects import HeapObject, scan_each, scan_into
from repro.runtime.waitreason import WaitReason

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.instructions import Instruction


class GStatus(enum.Enum):
    """Goroutine scheduling status.

    ``PENDING_RECLAIM`` and ``DEADLOCKED`` are the GOLF extensions
    (paper, sections 5.2 and 5.5): the former marks a goroutine reported
    this cycle and scheduled for reclamation; the latter marks a reported
    goroutine that must be kept (treated as live) because its exclusive
    subgraph carries finalizers.
    """

    RUNNABLE = "runnable"
    RUNNING = "running"
    WAITING = "waiting"
    DEAD = "dead"
    PENDING_RECLAIM = "pending-reclaim"
    DEADLOCKED = "deadlocked"


class Sudog:
    """A wait-queue node linking a goroutine to a channel operation.

    Mirrors Go's ``sudog``: one per (goroutine, channel) pairing; a
    goroutine blocked in a select owns one sudog per case.
    """

    __slots__ = ("g", "channel", "value", "is_send", "select_index", "active")

    def __init__(self, g: "Goroutine", channel: Any, value: Any,
                 is_send: bool, select_index: Optional[int] = None):
        self.g = g
        self.channel = channel
        self.value = value
        self.is_send = is_send
        self.select_index = select_index
        #: Cleared when the owning goroutine is woken through a different
        #: case (or reclaimed), so queue scans can skip stale entries.
        self.active = True


#: Sentinel for ``B(g)`` of goroutines blocked on nil channels or zero-case
#: selects: the paper's ``ε``, an object unreachable from any memory.
EPSILON: HeapObject = HeapObject(size=0)


class Goroutine(HeapObject):
    """A simulated goroutine descriptor (Go's ``*g``).

    Attributes:
        goid: unique goroutine id (monotonic; survives descriptor reuse
            the same way Go assigns a fresh goid per ``go`` statement).
        status: scheduling status.
        wait_reason: why the goroutine is waiting (when ``WAITING``).
        blocked_on: the concurrency objects ``B(g)`` of the pending
            blocking operation; empty when runnable.
        go_site: source location of the ``go`` statement that spawned it.
        masked: GOLF address obfuscation bit — while True, pointers to
            this descriptor held by global runtime structures are hidden
            from the marking phase.
    """

    __slots__ = (
        "goid", "name", "status", "wait_reason", "blocked_on",
        "gen", "pending_value", "pending_exc", "sudogs",
        "go_site", "parent_goid", "wake_at", "stack_bytes",
        "masked", "reported", "blocking_sema", "is_system",
        "spawned", "finished_value", "deadlock_label",
        "panicking", "defers", "fn_name",
        "wait_seq", "_class_seq", "_class_val",
    )

    kind = "goroutine"

    #: Simulated initial stack segment, as in Go (8 KiB).
    INITIAL_STACK_BYTES = 8 * 1024

    def __init__(self, goid: int, name: str = ""):
        super().__init__(size=424)  # sizeof(runtime.g) in go1.22 ballpark
        self.goid = goid
        self.name = name or f"goroutine-{goid}"
        self.status = GStatus.DEAD
        self.wait_reason: Optional[WaitReason] = None
        self.blocked_on: Tuple[HeapObject, ...] = ()
        self.gen: Optional[Any] = None
        self.pending_value: Any = None
        self.pending_exc: Optional[BaseException] = None
        self.sudogs: List[Sudog] = []
        self.go_site: str = ""
        self.parent_goid: int = 0
        self.wake_at: Optional[int] = None
        self.stack_bytes = self.INITIAL_STACK_BYTES
        self.masked = False
        self.reported = False
        #: The semaphore (or sync primitive) blocking this goroutine; the
        #: paper extends ``*g`` with exactly this (masked) reference.
        self.blocking_sema: Optional[HeapObject] = None
        #: System goroutines (mark workers, timer goroutine...) never
        #: participate in deadlock detection.
        self.is_system = False
        self.spawned = 0
        self.finished_value: Any = None
        #: Label used by the microbenchmark harness to tie a goroutine to
        #: an annotated leaky ``go`` instruction.
        self.deadlock_label: str = ""
        #: The in-flight panic, while the body is unwinding (set when the
        #: scheduler throws a :class:`~repro.errors.GoPanic` into the
        #: body; cleared by ``Recover`` or at termination).
        self.panicking: Optional[BaseException] = None
        #: LIFO stack of non-blocking deferred callables (``Defer``
        #: instruction).  Run at normal exit and on panic unwind — but
        #: *never* when GOLF forcibly reclaims the goroutine.
        self.defers: List[Any] = []
        #: Creation-site function name (the body function of the ``go``
        #: statement); feeds :attr:`trace_label`.
        self.fn_name: str = ""
        #: Wait-state epoch: bumped at every transition that can change
        #: the detector's classification of this goroutine (park, wake,
        #: relock, bind, finish, forced reclaim, report verdicts).  The
        #: detector memoizes its candidate/proof-skip/neither verdict
        #: against this counter, so daemon-cadence re-checks reclassify
        #: only goroutines whose wait state actually changed.
        self.wait_seq = 0
        #: ``wait_seq`` value the cached classification was computed at.
        self._class_seq = -1
        #: Cached classification (see ``repro.core.detector.classify``).
        self._class_val = 0

    # -- lifecycle ---------------------------------------------------------

    def bind(self, gen: Any, go_site: str, parent_goid: int,
             name: str = "", fn_name: str = "") -> None:
        """Attach a fresh body to this descriptor (spawn or reuse)."""
        self.gen = gen
        self.go_site = go_site
        self.parent_goid = parent_goid
        self.fn_name = fn_name
        if name:
            self.name = name
        self.wait_seq += 1
        self.status = GStatus.RUNNABLE
        self.wait_reason = None
        self.blocked_on = ()
        self.pending_value = None
        self.pending_exc = None
        self.sudogs = []
        self.wake_at = None
        self.stack_bytes = self.INITIAL_STACK_BYTES
        self.masked = False
        self.reported = False
        self.blocking_sema = None
        self.finished_value = None
        self.deadlock_label = ""
        self.panicking = None
        self.defers = []

    def finish(self) -> None:
        """Regular termination: reached the end of the body."""
        self.gen = None
        self.wait_seq += 1
        self.status = GStatus.DEAD
        self.wait_reason = None
        self.blocked_on = ()
        self.sudogs = []
        self.stack_bytes = 0
        self.blocking_sema = None
        self.panicking = None
        self.defers = []

    def cleanup_after_deadlock(self) -> None:
        """GOLF's special cleanup for forcibly reclaimed goroutines.

        Regular termination assumes a goroutine exits at a clean point;
        a goroutine killed mid-``select`` still holds sudogs, a pending
        wait reason, possibly a masked address, and a blocking-semaphore
        back-reference.  Reset everything so the descriptor can rejoin the
        reuse pool without confusing the scheduler (paper, section 5.4,
        "Goroutine Reuse").

        The body generator is *dropped without being resumed*: deferred
        work in the goroutine must not run, matching GOLF's forced
        shutdown.  The ``defers`` list is likewise discarded unexecuted
        (see :mod:`repro.core.recovery` for why this is intentional).
        """
        for sd in self.sudogs:
            sd.active = False
        self.sudogs = []
        self.pending_value = None
        self.pending_exc = None
        self.wait_reason = None
        self.blocked_on = ()
        self.wake_at = None
        self.masked = False
        self.blocking_sema = None
        self.gen = None
        self.wait_seq += 1
        self.status = GStatus.DEAD
        self.stack_bytes = 0
        self.panicking = None
        self.defers = []

    # -- state queries -----------------------------------------------------

    @property
    def trace_label(self) -> str:
        """Human-readable identity for user-facing text: creation-site
        function name plus the spawn goid (``worker#7``)."""
        return f"{self.fn_name or self.name}#{self.goid}"

    @property
    def is_blocked_detectably(self) -> bool:
        """Whether this goroutine is a deadlock candidate: user-blocked at
        a channel or ``sync`` operation."""
        return (
            self.status == GStatus.WAITING
            and self.wait_reason is not None
            and self.wait_reason.is_detectable
            and not self.is_system
        )

    @property
    def runnable_for_liveness(self) -> bool:
        """Whether GOLF's initial root set includes this goroutine.

        True for running/runnable goroutines and for waits the detector
        cannot reason about (sleep, IO, internal), i.e. ``B(g) = ∅``.
        """
        if self.status in (GStatus.RUNNABLE, GStatus.RUNNING):
            return True
        if self.status == GStatus.WAITING:
            return not self.is_blocked_detectably
        return False

    def block_site(self) -> str:
        """Source location (``file:line``) where the body is suspended."""
        frame = self._innermost_frame()
        if frame is None:
            return "<no stack>"
        # Interned: every channel, goroutine and go-create record made at
        # one site shares one string instead of holding its own copy.
        return sys.intern(f"{frame.f_code.co_filename}:{frame.f_lineno}")

    def stack_trace(self) -> List[str]:
        """Best-effort stack trace of the suspended body."""
        trace = []
        gen = self.gen
        while gen is not None and getattr(gen, "gi_frame", None) is not None:
            frame = gen.gi_frame
            trace.append(
                f"{frame.f_code.co_name} "
                f"({frame.f_code.co_filename}:{frame.f_lineno})"
            )
            gen = getattr(gen, "gi_yieldfrom", None)
        return trace

    def _innermost_frame(self) -> Any:
        frame = None
        gen = self.gen
        while gen is not None and getattr(gen, "gi_frame", None) is not None:
            frame = gen.gi_frame
            gen = getattr(gen, "gi_yieldfrom", None)
        return frame

    # -- GC integration ----------------------------------------------------

    @property
    def scan_work(self) -> int:  # type: ignore[override]
        """Marking cost of scanning this goroutine's stack.

        Proportional to the stack segment size, as in Go: a baseline GC
        pays this for every goroutine including leaked ones, while GOLF
        skips goroutines that are never proven reachably live.
        """
        return self.stack_bytes // 256

    def stack_heap_refs(self) -> List[HeapObject]:
        """Scan the goroutine's stack for heap references.

        Walks every frame of the (possibly delegated) generator chain and
        conservatively scans frame locals; also covers the operands of the
        instruction the goroutine is currently blocked on and any pending
        received value — both of which live on the real stack in Go.
        """
        out: List[HeapObject] = []
        gen = self.gen
        while gen is not None and getattr(gen, "gi_frame", None) is not None:
            scan_each(gen.gi_frame.f_locals.values(), out)
            gen = getattr(gen, "gi_yieldfrom", None)
        scan_into(self.pending_value, out)
        for sd in self.sudogs:
            if sd.active and sd.channel is not None:
                out.append(sd.channel)
                scan_into(sd.value, out)
        if self.blocking_sema is not None:
            out.append(self.blocking_sema)
        return out

    def referents(self) -> List[HeapObject]:
        """Marking a goroutine marks everything its stack references."""
        return self.stack_heap_refs()

    def __repr__(self) -> str:
        reason = f" [{self.wait_reason.value}]" if self.wait_reason else ""
        return f"<goroutine {self.goid} {self.name!r} {self.status.value}{reason}>"
