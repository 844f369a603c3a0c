"""An ``errgroup`` analog: structured goroutine groups with first-error
semantics and optional cancellation.

Mirrors ``golang.org/x/sync/errgroup``: ``group_go`` spawns a task
tracked by a WaitGroup; the first task error is retained; with a
context-bound group the first error cancels the context.  Group tasks
report failure by returning a non-``None`` value (the analog of
returning a non-nil ``error``).

All helpers are generator functions composed with ``yield from``.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.runtime.context import Context, with_cancel
from repro.runtime.instructions import Alloc, Go, NewWaitGroup, WgAdd, WgDone, WgWait
from repro.runtime.objects import WORD_SIZE, HeapObject
from repro.runtime.sync import WaitGroup


class Group(HeapObject):
    """Tracks a set of tasks; remembers the first error."""

    __slots__ = ("wg", "err", "_cancel", "ctx")
    kind = "errgroup"

    def __init__(self, wg: WaitGroup, ctx: Optional[Context] = None,
                 cancel: Optional[Callable] = None):
        HeapObject.__init__(self, 4 * WORD_SIZE)
        self.wg = wg
        self.err: Any = None
        self.ctx = ctx
        self._cancel = cancel

    def referents(self) -> List[HeapObject]:
        return [self.wg] if self.ctx is None else [self.wg, self.ctx]


def new_group():
    """``errgroup.Group{}`` — no cancellation. Use with ``yield from``."""
    wg = yield NewWaitGroup(label="errgroup")
    group = yield Alloc(Group(wg))
    return group


def with_context(parent: Optional[Context] = None):
    """``errgroup.WithContext``: returns ``(group, ctx)``; the first task
    error cancels ``ctx``. Use with ``yield from``."""
    ctx, cancel = yield from with_cancel(parent)
    wg = yield NewWaitGroup(label="errgroup")
    group = yield Alloc(Group(wg, ctx=ctx, cancel=cancel))
    return group, ctx


def group_go(group: Group, fn: Callable[..., Any], *args: Any,
             name: str = ""):
    """``g.Go(fn)``: run ``fn(*args)`` (a generator function) in a new
    goroutine tracked by the group. Use with ``yield from``."""
    yield WgAdd(group.wg, 1)

    def task():
        err = None
        try:
            err = yield from fn(*args)
        finally:
            if err is not None and group.err is None:
                group.err = err
                if group._cancel is not None:
                    yield from group._cancel()
            yield WgDone(group.wg)

    yield Go(task, name=name or "errgroup-task")


def group_wait(group: Group):
    """``g.Wait()``: blocks until all tasks finish; returns the first
    error (or ``None``) and cancels the bound context, as Go does.
    Use with ``yield from``."""
    yield WgWait(group.wg)
    if group._cancel is not None:
        yield from group._cancel()
    return group.err
