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

A third line per program pins the why-leaked records of a run with no
tracer, the path every detection takes: the sha256 of every provenance
record's ``as_dict()`` at procs :data:`TRACE_PROCS`.  A change to how
provenance is captured or rendered shows up there.

Two last lines pin the observed production service, the workload
``svc-prod-observed`` runs: ``run_production`` at the benchmark's
configuration, with its hub, tracer and scraper attached.  One is the
sha256 of every provenance record's ``as_dict()``; the other pins its
trace surface as the second lines above do, hashed one event at a time
(:func:`_streamed_digest`).  Its ring is the default 100 000 records
at 8 processors, so the why-leaked scan there reads a ring of many
blocks, and the ring spills blocks, evicts its oldest and records
slices on every processor, which the 64-record rings above never do.
"""

from __future__ import annotations

import hashlib

from benchmarks.conftest import emit
from benchmarks.e2e.workloads import ObservingHub, _prod_prepare
from repro import codec
from repro.core.config import GC_MODES, GolfConfig
from repro.equivalence import Leg, corpus, run_leg
from repro.service.production import run_production
from repro.trace.tracer import event_of

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


def _streamed_digest(rt) -> str:
    """The sha256 of :func:`_trace_surface`'s facts, fed one rendered
    event at a time: a full 100 000-record ring rendered and dumped at
    once holds about a quarter of a gigabyte."""
    tracer = rt.tracer
    h = hashlib.sha256()
    for r in tracer.iter_records():
        h.update(codec.dumps(event_of(r).as_dict(), compact=True).encode())
    h.update(codec.dumps({
        "dropped": tracer.dropped,
        "provenance": [r.provenance.as_dict() for r in rt.reports]}).encode())
    return h.hexdigest()


TRACED = Leg("traced", hook=lambda rt, program:
             rt.enable_tracing(capacity=TRACE_CAPACITY))
UNTRACED = Leg("untraced")


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
    for program in corpus():
        rt, _ = run_leg(UNTRACED, program, TRACE_PROCS, SEED)
        lines.append(f"{program.name}\tp{TRACE_PROCS}\tprovenance\t"
                     f"{digest([r.provenance.as_dict() for r in rt.reports])}")
    config, hub = _prod_prepare(SEED, 1.0), ObservingHub()
    run_production(config, telemetry=hub)
    (rt,) = hub.observed
    lines.append(f"svc-prod-observed\tp{config.procs}\tprovenance\t"
                 f"{digest([r.provenance.as_dict() for r in rt.reports])}")
    lines.append(f"svc-prod-observed\tp{config.procs}\ttrace\t"
                 f"{_streamed_digest(rt)}")
    emit("pins", "\n".join(lines))
    assert len(lines) == 752
