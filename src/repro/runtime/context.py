"""A ``context`` package analog: cancellation trees over channels.

Go's ``context.Context`` is the idiomatic cancellation mechanism — and
forgetting to watch ``ctx.Done()`` (or to call the cancel function) is
one of the most common sources of goroutine leaks in real code.  This
module implements the channel-based core: a context owns a ``done``
channel that is closed on cancellation, cancellation propagates to child
contexts, and ``with_timeout`` arms a timer that cancels automatically.

Everything is built on public runtime instructions (no scheduler
changes): the helpers are generator functions used with ``yield from``.

Example::

    ctx, cancel = yield from with_cancel()

    def worker():
        idx, _, _ = yield Select([RecvCase(work_ch), RecvCase(ctx.done)])
        if idx == 1:
            return  # cancelled

    yield Go(worker)
    ...
    yield from cancel()
"""

from __future__ import annotations

from typing import List, Optional

from repro.runtime.channel import Channel
from repro.runtime.instructions import Alloc, Close, Go, MakeChan, Sleep
from repro.runtime.objects import WORD_SIZE, HeapObject

#: Error values mirroring Go's context package.
CANCELED = "context canceled"
DEADLINE_EXCEEDED = "context deadline exceeded"


class Context(HeapObject):
    """A cancellable context node.

    Attributes:
        done: the channel closed when this context is cancelled.  Nil
            (``None``) for the background context, which is never
            cancelled — selecting on it blocks forever, as in Go.
        err: ``None`` while live; ``CANCELED`` or ``DEADLINE_EXCEEDED``
            after cancellation.
    """

    __slots__ = ("done", "err", "parent", "children", "deadline_ns")
    kind = "context"

    def __init__(self, done: Optional[Channel],
                 parent: Optional["Context"] = None,
                 deadline_ns: Optional[int] = None):
        super().__init__(size=5 * WORD_SIZE)
        self.done = done
        self.err: Optional[str] = None
        self.parent = parent
        self.children: List["Context"] = []
        self.deadline_ns = deadline_ns

    @property
    def cancelled(self) -> bool:
        return self.err is not None

    def referents(self) -> List[HeapObject]:
        refs: List[HeapObject] = [] if self.done is None else [self.done]
        refs.extend(self.children)
        return refs

    def __repr__(self) -> str:
        state = self.err or "live"
        return f"<context {state} children={len(self.children)}>"


#: The root context: never cancelled, nil done channel.
def background() -> Context:
    """Create a background context (allocate via ``Alloc`` or the
    runtime facade before use in GC-sensitive code)."""
    return Context(done=None)


def _cancel_tree(ctx: Context, err: str):
    """Close the done channels of ``ctx`` and every descendant."""
    stack = [ctx]
    while stack:
        node = stack.pop()
        if node.err is not None:
            continue
        node.err = err
        if node.done is not None and not node.done.closed:
            yield Close(node.done)
        stack.extend(node.children)


def with_cancel(parent: Optional[Context] = None):
    """``context.WithCancel``: returns ``(ctx, cancel)``.

    ``cancel`` is a generator function: invoke it with
    ``yield from cancel()``.  Calling it more than once is a no-op, as
    in Go.  Use with ``yield from``.
    """
    done = yield MakeChan(0, label="ctx.done")
    ctx = yield Alloc(Context(done=done, parent=parent))
    if parent is not None:
        parent.children.append(ctx)
        if parent.cancelled:
            # Cancellation already happened upstream; propagate eagerly.
            yield from _cancel_tree(ctx, parent.err)

    def cancel():
        yield from _cancel_tree(ctx, CANCELED)

    return ctx, cancel


def with_timeout(duration_ns: int, parent: Optional[Context] = None):
    """``context.WithTimeout``: cancels automatically after the duration.

    Returns ``(ctx, cancel)``; an internal timer goroutine fires the
    deadline (it is sleep-parked, so GOLF treats it as live, and it
    exits after one interval).  Use with ``yield from``.
    """
    ctx, cancel = yield from with_cancel(parent)

    def deadline_timer():
        yield Sleep(duration_ns)
        if not ctx.cancelled:
            yield from _cancel_tree(ctx, DEADLINE_EXCEEDED)

    yield Go(deadline_timer)
    return ctx, cancel


def done_channel(ctx: Optional[Context]):
    """The channel to select on for ``<-ctx.Done()`` — ``None`` (a nil
    channel that never fires) for nil/background contexts."""
    if ctx is None:
        return None
    return ctx.done
