"""Low-level semaphores and the global semaphore table.

Go parks goroutines blocked on ``sync`` primitives in a global table
indexed by semaphore address, with back pointers to the blocked
goroutines (paper, section 5.4; Go balances it as a treap, which nothing
here observes).  GOLF must both mask those back pointers during marking
(so parked goroutines are not prematurely reachable) and purge the
entries of goroutines it reclaims.

The table is a *global runtime structure*, not a heap object: the
collector never traces through it, which is exactly the property the
paper achieves with address obfuscation — see
:mod:`repro.core.masking` for the mask bookkeeping.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, List, Optional

from repro.runtime.goroutine import Goroutine
from repro.runtime.objects import WORD_SIZE, HeapObject


class Semaphore(HeapObject):
    """A counting semaphore, the primitive under every ``sync`` type."""

    __slots__ = ("count",)
    kind = "sema"

    def __init__(self, count: int = 0):
        if count < 0:
            raise ValueError("semaphore count must be non-negative")
        HeapObject.__init__(self, WORD_SIZE)
        self.count = count


class SemaTable:
    """The global table of in-use semaphores: one FIFO wait queue per key.

    Keys are semaphore addresses; under GOLF the stored keys carry the
    obfuscation mask, but the table is agnostic to that — callers pass
    whatever key form the masking policy dictates.  A key is present
    exactly while its queue is non-empty.
    """

    __slots__ = ("_queues", "tracer")

    def __init__(self) -> None:
        self._queues: Dict[int, Deque[Goroutine]] = defaultdict(deque)
        #: Optional execution tracer (installed by ``enable_tracing``):
        #: records blocked acquires and handoff grants.
        self.tracer = None

    def enqueue(self, key: int, g: Goroutine) -> None:
        """Park ``g`` on the semaphore with table key ``key``.

        Deliberately *not* routed through the write barrier: the table is
        a global runtime structure the collector never traces, and the
        enqueued back pointers target (possibly masked) goroutine
        descriptors.  Shading them here would make every parked goroutine
        reachable the instant it blocks, defeating the address masking
        the paper builds deadlock detection on — sudog linking becomes
        GC-visible only through the channel/stack edges that the barrier
        does cover.
        """
        self._queues[key].append(g)
        if self.tracer is not None:
            self.tracer.on_sema_queue(key, g)

    def dequeue(self, key: int) -> Optional[Goroutine]:
        """Remove and return the longest-waiting goroutine for ``key``."""
        queue = self._queues.get(key)
        if queue is None:
            return None
        g = queue.popleft()
        if not queue:
            del self._queues[key]
        if self.tracer is not None:
            self.tracer.on_sema_dequeue(key, g)
        return g

    def waiters(self, key: int) -> List[Goroutine]:
        return list(self._queues.get(key, ()))

    def remove_goroutine(self, g: Goroutine) -> bool:
        """Purge every entry for ``g`` (GOLF recovery bookkeeping).

        Returns True if at least one entry was removed.  Needed because a
        goroutine reclaimed while parked on a ``sync`` primitive would
        otherwise leave a dangling back pointer in the table (paper,
        section 5.4, "Semaphores").
        """
        hit = [key for key, queue in self._queues.items() if g in queue]
        for key in hit:
            kept = deque(w for w in self._queues[key] if w is not g)
            if kept:
                self._queues[key] = kept
            else:
                del self._queues[key]
        return bool(hit)

    def __len__(self) -> int:
        """Total number of parked goroutines across all semaphores."""
        return sum(map(len, self._queues.values()))

    def keys(self) -> List[int]:
        return sorted(self._queues)
