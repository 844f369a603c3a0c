"""Channels: bounded message queues with Go semantics.

Semantics implemented (paper, section 2):

- Unbuffered channels synchronize sender and receiver directly.
- Buffered channels block senders only when full and receivers only when
  empty.
- ``close`` wakes all receivers (draining the buffer first, then yielding
  zero values with ``ok=False``) and makes blocked/future senders panic.
- Nil channels are represented by ``None`` at the instruction level and
  never reach this class; the scheduler parks those goroutines forever
  with ``B(g) = {ε}``.

A channel's :meth:`referents` cover its buffered values but deliberately
*not* the goroutines enqueued on it: in GOLF's marking, reaching a channel
must not by itself resurrect the goroutines blocked on it — liveness
propagation goes through the detector's root-set expansion instead
(paper, sections 4.2 and 5.4).  Blocked goroutines do reference the
channel from their own stacks.

Operations are expressed as try/enqueue primitives plus explicit *wakeup*
records; the scheduler applies wakeups (it owns run queues and sudog
deactivation), keeping this module scheduler-agnostic and unit-testable.

The buffer and both wait queues are plain lists, FIFO through
``pop(0)``, as Go's ``hchan`` holds each wait queue as two pointers.
A ``collections.deque`` allocates a 64-slot block when it is built;
at the depths the workloads reach (a few waiters, a buffer of a few
hundred at most) shifting a list costs less than that block.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, List, Optional, Tuple

from repro.errors import (
    CloseOfClosedChannel,
    SendOnClosedChannel,
)
from repro.runtime.goroutine import Sudog
from repro.runtime.objects import WORD_SIZE, HeapObject, scan_each, scan_into

#: The zero value delivered by receives on closed, drained channels.
ZERO_VALUE: Any = None

#: A sudog's ``active`` flag: the wait counts summed over a queue.
_active = attrgetter("active")


class Wakeup:
    """A pending scheduler action: resume ``sudog.g`` with ``result``.

    ``exc`` (if set) is thrown into the goroutine instead — used to panic
    senders blocked on a channel that gets closed.
    """

    __slots__ = ("sudog", "result", "exc")

    def __init__(self, sudog: Sudog, result: Any = None,
                 exc: Optional[BaseException] = None):
        self.sudog = sudog
        self.result = result
        self.exc = exc


class Channel(HeapObject):
    """A Go channel of the given capacity (0 = unbuffered)."""

    __slots__ = ("capacity", "buffer", "closed", "sendq", "recvq",
                 "label", "make_site", "last_sender_goid",
                 "last_receiver_goid", "total_transfers")

    kind = "chan"

    def __init__(self, capacity: int = 0, label: str = ""):
        if capacity < 0:
            raise ValueError("channel capacity must be non-negative")
        HeapObject.__init__(self, 12 * WORD_SIZE + WORD_SIZE * capacity)
        self.capacity = capacity
        self.buffer: List[Any] = []
        self.closed = False
        self.sendq: List[Sudog] = []
        self.recvq: List[Sudog] = []
        self.label = label
        self.make_site = ""
        # Last-communication ledger, maintained by the executor on every
        # completed transfer.  The provenance engine reads it to answer
        # "who talked on this channel last before the leak?".
        self.last_sender_goid = 0
        self.last_receiver_goid = 0
        self.total_transfers = 0

    def note_transfer(self, sender_goid: int, receiver_goid: int) -> None:
        """Record one completed message transfer (goid 0 = unknown side)."""
        if sender_goid:
            self.last_sender_goid = sender_goid
        if receiver_goid:
            self.last_receiver_goid = receiver_goid
        self.total_transfers += 1

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        """Number of buffered messages (Go's ``len(ch)``)."""
        return len(self.buffer)

    @property
    def cap(self) -> int:
        """Buffer capacity (Go's ``cap(ch)``)."""
        return self.capacity

    @property
    def full(self) -> bool:
        return len(self.buffer) >= self.capacity

    def waiting_senders(self) -> int:
        q = self.sendq
        return sum(map(_active, q)) if q else 0

    def waiting_receivers(self) -> int:
        q = self.recvq
        return sum(map(_active, q)) if q else 0

    def referents(self) -> List[HeapObject]:
        out = scan_each(self.buffer, []) if self.buffer else []
        # Values held by parked senders are published to any receiver that
        # can reach the channel, so they are reachable through it.
        for sd in self.sendq:
            if sd.active:
                scan_into(sd.value, out)
        return out

    # -- checkpoint/restart support ------------------------------------------

    def checkpoint_state(self) -> Any:
        """Snapshot the channel's message state (buffer + closed flag).

        Wait queues are deliberately *not* captured: sudogs belong to
        goroutines, and rollback either kills their owners (subsystem
        workers) or must leave them parked untouched (outside clients
        blocked on the subsystem's channels).
        """
        return {"buffer": list(self.buffer), "closed": self.closed}

    def restore_state(self, state: Any) -> None:
        for value in state["buffer"]:
            self._barrier(value)
        self.buffer = list(state["buffer"])
        self.closed = state["closed"]

    # -- queue helpers -------------------------------------------------------

    def _pop_waiter(self, queue: List[Sudog]) -> Optional[Sudog]:
        while queue:
            sd = queue.pop(0)
            if sd.active:
                return sd
        return None

    def enqueue_sender(self, sudog: Sudog) -> None:
        # Linking the sudog publishes its value through the channel (see
        # referents()), so the store is barrier-visible like any other.
        self._barrier(sudog.value)
        self.sendq.append(sudog)

    def enqueue_receiver(self, sudog: Sudog) -> None:
        self.recvq.append(sudog)

    # -- operations ----------------------------------------------------------

    def can_send(self) -> bool:
        """Whether a send would complete without blocking right now."""
        if self.closed:
            return True  # completes by panicking
        return not self.full or self._has_active(self.recvq)

    def can_recv(self) -> bool:
        """Whether a receive would complete without blocking right now."""
        if self.buffer or self.closed:
            return True
        return self._has_active(self.sendq)

    def _has_active(self, queue: List[Sudog]) -> bool:
        return any(map(_active, queue)) if queue else False

    def try_send(self, value: Any) -> Tuple[bool, List[Wakeup]]:
        """Attempt a non-blocking send.

        Returns ``(completed, wakeups)``.  Raises
        :class:`SendOnClosedChannel` if the channel is closed.
        """
        if self.closed:
            raise SendOnClosedChannel()
        receiver = self._pop_waiter(self.recvq)
        if receiver is not None:
            return True, [Wakeup(receiver, result=(value, True))]
        if not self.full:
            self._barrier(value)
            self.buffer.append(value)
            return True, []
        return False, []

    def try_recv(self) -> Tuple[bool, Any, bool, List[Wakeup]]:
        """Attempt a non-blocking receive.

        Returns ``(completed, value, ok, wakeups)`` where ``ok`` follows
        Go's two-value receive form.
        """
        if self.buffer:
            value = self.buffer.pop(0)
            wakeups: List[Wakeup] = []
            # A parked sender can now move its value into the buffer.
            sender = self._pop_waiter(self.sendq)
            if sender is not None:
                self._barrier(sender.value)
                self.buffer.append(sender.value)
                wakeups.append(Wakeup(sender, result=None))
            return True, value, True, wakeups
        sender = self._pop_waiter(self.sendq)
        if sender is not None:
            # Unbuffered rendezvous (or racing send on a full buffer that
            # just drained): take the value directly.
            return True, sender.value, True, [Wakeup(sender, result=None)]
        if self.closed:
            return True, ZERO_VALUE, False, []
        return False, None, False, []

    def close(self) -> List[Wakeup]:
        """Close the channel, producing wakeups for every parked party.

        Parked receivers resume with ``(zero, False)``; parked senders
        panic with "send on closed channel", as in Go.
        """
        if self.closed:
            raise CloseOfClosedChannel()
        self.closed = True
        wakeups: List[Wakeup] = []
        while True:
            receiver = self._pop_waiter(self.recvq)
            if receiver is None:
                break
            wakeups.append(Wakeup(receiver, result=(ZERO_VALUE, False)))
        while True:
            sender = self._pop_waiter(self.sendq)
            if sender is None:
                break
            wakeups.append(Wakeup(sender, exc=SendOnClosedChannel()))
        return wakeups

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        tag = f" {self.label!r}" if self.label else ""
        return (
            f"<chan{tag} cap={self.capacity} len={len(self.buffer)} {state} "
            f"sendq={self.waiting_senders()} recvq={self.waiting_receivers()}>"
        )
