"""Exception hierarchy for the simulated Go runtime.

The runtime distinguishes between errors raised *inside* simulated
goroutines (panics, which unwind a single goroutine) and errors raised by
the runtime itself (fatal errors, which terminate the whole simulated
process, mirroring ``fatal error:`` conditions in Go).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class GoPanic(ReproError):
    """A Go ``panic`` inside a simulated goroutine.

    Thrown into the goroutine body by the scheduler so ``try``/``finally``
    and ``except GoPanic`` blocks (the ``defer``/``recover`` analogs) run.
    Unless recovered (``yield Recover()`` or a Python-level catch), a
    panic escaping any goroutine crashes the whole simulated program, as
    in Go — except when ``goroutine_scoped`` is set, in which case only
    the panicking goroutine dies (used by the chaos fault injector, whose
    faults must never take down the simulated process).
    """

    #: When True, an unrecovered panic kills only the goroutine it was
    #: delivered to instead of crashing the simulated program.
    goroutine_scoped = False

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class InjectedPanic(GoPanic):
    """A panic injected by the chaos engine (:mod:`repro.chaos`).

    Goroutine-scoped: the victim unwinds (its ``try/finally`` defers
    run) and dies, but the simulated program keeps running — the point
    of fault injection is to perturb the runtime, not to end the run.
    """

    goroutine_scoped = True


class SendOnClosedChannel(GoPanic):
    """Panic raised when sending on a closed channel."""

    def __init__(self) -> None:
        super().__init__("send on closed channel")


class CloseOfClosedChannel(GoPanic):
    """Panic raised when closing an already-closed channel."""

    def __init__(self) -> None:
        super().__init__("close of closed channel")


class CloseOfNilChannel(GoPanic):
    """Panic raised when closing a nil channel."""

    def __init__(self) -> None:
        super().__init__("close of nil channel")


class NegativeWaitGroupCounter(GoPanic):
    """Panic raised when a ``sync.WaitGroup`` counter drops below zero."""

    def __init__(self) -> None:
        super().__init__("sync: negative WaitGroup counter")


class UnlockOfUnlockedMutex(GoPanic):
    """Panic raised when unlocking a mutex that is not locked."""

    def __init__(self) -> None:
        super().__init__("sync: unlock of unlocked mutex")


class FatalRuntimeError(ReproError):
    """A fatal error from the simulated runtime (kills the whole program)."""


class GlobalDeadlockError(FatalRuntimeError):
    """All goroutines are blocked: Go's global deadlock fatal error.

    Carries a per-goroutine stack dump (``dump``), like the listing the
    Go runtime prints after the fatal line.
    """

    def __init__(self, num_goroutines: int, dump: str = ""):
        message = (
            "fatal error: all goroutines are asleep - deadlock! "
            f"({num_goroutines} goroutines)"
        )
        if dump:
            message += "\n" + dump
        super().__init__(message)
        self.num_goroutines = num_goroutines
        self.dump = dump


class InvalidInstruction(FatalRuntimeError):
    """A goroutine body yielded something that is not an instruction."""


class SchedulerError(FatalRuntimeError):
    """Internal inconsistency detected by the scheduler."""


class ArtifactError(ReproError, ValueError):
    """An on-disk artifact is malformed — bad JSON, a missing or
    mistyped field, another schema version (:mod:`repro.codec`); the
    message names the field.  Also a :class:`ValueError`, which is what
    the validators raised before they shared a type."""
