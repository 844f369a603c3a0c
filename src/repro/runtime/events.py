"""The fixed vocabulary of event kinds the runtime's instrumentation
sites pass to their observers.  It belongs to its emitter: the tracer
(:mod:`repro.trace.events` re-exports it) and the telemetry hub import
it from here, never the other way round (``docs/ARCHITECTURE.md``,
"Layers"; ``docs/TRACING.md`` has the full table).
"""

from __future__ import annotations

import sys

# -- goroutine lifecycle -----------------------------------------------------
GO_CREATE = "go-create"
GO_PARK = "go-park"
GO_WAKE = "go-wake"
GO_END = "go-end"
GO_RECLAIM = "go-reclaim"
GO_PANIC = "go-panic"

# -- per-core execution ------------------------------------------------------
INSTR = "instr"

# -- channel operations ------------------------------------------------------
CHAN_MAKE = "chan-make"
CHAN_SEND = "chan-send"
CHAN_RECV = "chan-recv"
CHAN_CLOSE = "chan-close"
SELECT_RESOLVE = "select-resolve"

# -- semaphores (the primitive under every sync type) ------------------------
SEMA_ACQUIRE = "sema-acquire"
SEMA_RELEASE = "sema-release"

# -- garbage collection ------------------------------------------------------
GC_PHASE = "gc-phase"
GC_CYCLE = "gc-cycle"
BARRIER_SHADE = "barrier-shade"

# -- verdicts and chaos ------------------------------------------------------
DEADLOCK = "partial-deadlock"
FAULT_INJECT = "fault-inject"

# -- detection daemon and checkpoint recovery -------------------------------
DAEMON_START = "daemon-start"
DAEMON_STOP = "daemon-stop"
DAEMON_DETECT = "daemon-detect"
RECOVERY_RESTART = "recovery-restart"

#: Every kind constant above, by module attribute name (in order).
_KIND_NAMES = tuple(name for name, value in globals().items()
                    if name.isupper() and isinstance(value, str))

# Intern the vocabulary at module load.  Hyphenated literals are not
# auto-interned by CPython; event kinds are dict keys and comparison
# operands on every tracer emit, so pin one shared object per kind and
# make those operations pointer-fast.  Instrumentation sites must pass
# these constants, never fresh literals.
for _name in _KIND_NAMES:
    globals()[_name] = sys.intern(globals()[_name])
del _name

#: The complete, fixed event vocabulary.
VOCABULARY = frozenset(globals()[name] for name in _KIND_NAMES)

__all__ = _KIND_NAMES + ("VOCABULARY",)
