"""Per-leg pins: one fingerprint digest per registry run.

The equivalence pairs compare two ways of running a program against
each other; nothing there notices a change that moves both legs the
same way.  This file pins every leg on its own: the 125 ground-truth
programs x procs {1, 4} x gc mode {atomic, incremental}, seed 7, one
line each with the sha256 of the run's canonical fingerprint.  A
schedule or accounting change then shows up in ``git diff`` as the
named legs it moved.

A second line per program pins what a reader of the execution trace
gets: every rendered event and the ``dropped`` count of a ring of
:data:`TRACE_CAPACITY` records (small enough to overflow), and every
provenance record, at procs :data:`TRACE_PROCS`.  A change to how the
tracer stores its records shows up there.
"""

from __future__ import annotations

import hashlib

from benchmarks.conftest import emit
from repro import codec
from repro.core.config import GC_MODES, GolfConfig
from repro.equivalence import Leg, corpus, run_leg

SEED = 7
PROCS = (1, 4)
TRACE_PROCS = 2
TRACE_CAPACITY = 64


def digest(fingerprint: dict) -> str:
    return hashlib.sha256(codec.dumps(fingerprint).encode()).hexdigest()


def _trace_surface(rt) -> dict:
    tracer = rt.tracer
    return {"events": [e.as_dict() for e in tracer.events],
            "dropped": tracer.dropped,
            "provenance": [r.provenance.as_dict() for r in rt.reports]}


TRACED = Leg("traced", hook=lambda rt, program:
             rt.enable_tracing(capacity=TRACE_CAPACITY))


def test_per_leg_pins():
    lines = []
    for program in corpus():
        for procs in PROCS:
            for mode in GC_MODES:
                leg = Leg(mode, lambda mode=mode: GolfConfig(gc_mode=mode))
                _, fp = run_leg(leg, program, procs, SEED)
                lines.append(f"{program.name}\tp{procs}\t{mode}\t"
                             f"{digest(fp)}")
    for program in corpus():
        rt, _ = run_leg(TRACED, program, TRACE_PROCS, SEED)
        lines.append(f"{program.name}\tp{TRACE_PROCS}\ttrace\t"
                     f"{digest(_trace_surface(rt))}")
    emit("pins", "\n".join(lines))
    assert len(lines) == 625
