"""Detector-fixpoint savings from static leak-freedom proofs.

A worker pool blocks goroutines mid-rendezvous on a channel the
behavioral-type engine (repro.staticcheck.behavior) certifies
leak-free, while each worker also strands one goroutine on a genuinely
leaky channel.  Periodic GC then fires while both kinds of blocked
goroutine are parked, so every detection fixpoint sees a mix of
proven and unproven candidates — exactly the workload the proof-skip
path (repro.core.detector.proof_skip_eligible) is for.

Each grid point runs twice, proofs-off and proofs-on, and the doc
records both legs' detector work (liveness checks, mark iterations,
mark work units) plus the modeled fixpoint time.  Everything is
virtual-time deterministic, so ``BENCH_vet.json`` must reproduce
exactly (``check_bench_regression.py vet`` is the CI gate), and the
acceptance floors are:

- both legs byte-identical in status and leak reports (the
  equivalence invariant, spot-checked here and enforced corpus-wide
  by ``repro equiv proofs``);
- proofs-on observes at least one skip at every grid point;
- proofs-on never does more fixpoint work, and at the largest pool
  the liveness-check reduction clears ``REDUCTION_FLOOR``.
"""

from __future__ import annotations

import os
from typing import List, Optional

from benchmarks.conftest import emit, once
from repro import codec
from repro.core.config import NS_PER_LIVENESS_CHECK, GolfConfig
from repro.runtime.api import Runtime
from repro.runtime.clock import MICROSECOND, SECOND
from repro.runtime.instructions import (
    Close,
    Go,
    MakeChan,
    NewWaitGroup,
    Recv,
    Send,
    Sleep,
    WgAdd,
    WgDone,
    WgWait,
    Work,
)
from repro.staticcheck.behavior import analyze_callable_behavior
from repro.staticcheck.fusion import registry_for_analysis

SEED = 0
PROCS = 2
WORKER_GRID = (2, 3, 4)
PERIODIC_GC_NS = 30 * MICROSECOND

#: Minimum liveness-check reduction (proofs-on vs proofs-off) at the
#: largest grid point.  The prototype measures ~51%; 30% leaves slack
#: for scheduler-neutral refactors without letting the skip path rot.
REDUCTION_FLOOR = 0.30

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_vet.json")


def make_pool(workers: int):
    """Pool body: ``workers`` senders rendezvous with a draining main.

    ``vet.pool.req`` is PROVEN (every send is paired, the closer closes
    after the WaitGroup drains, main consumes until closed-and-empty).
    ``vet.pool.orphan`` leaks one receiver per worker and stays
    unproven, so the detector always has real work left.
    """

    def pool_main():
        req = yield MakeChan(0, label="vet.pool.req")
        wg = yield NewWaitGroup()
        yield WgAdd(wg, workers)

        def worker(ch=req, group=wg):
            orphan = yield MakeChan(0, label="vet.pool.orphan")

            def leaker(c=orphan):
                yield Recv(c)        # no sender: leaks

            yield Go(leaker)
            yield Sleep(20 * MICROSECOND)   # park on req at a GC point
            yield Send(ch, 1)
            yield WgDone(group)

        def closer(group=wg, ch=req):
            yield WgWait(group)
            yield Close(ch)

        for _ in range(workers):
            yield Go(worker)
        yield Go(closer)
        while True:
            _, ok = yield Recv(req)
            if not ok:
                break
            yield Work(40)               # slow drain keeps senders parked

    return pool_main


def _run_leg(workers: int, registry) -> dict:
    rt = Runtime(procs=PROCS, seed=SEED, config=GolfConfig())
    if registry is not None:
        rt.install_proofs(registry)
    rt.enable_periodic_gc(PERIODIC_GC_NS)
    rt.spawn_main(make_pool(workers))
    status = rt.run(until_ns=5 * SECOND, max_instructions=2_000_000)
    rt.gc_until_quiescent()
    cycles = rt.collector.stats.cycles
    liveness = sum(c.liveness_checks for c in cycles)
    leg = {
        "status": status,
        "report_labels": sorted(r.label for r in rt.reports.reports),
        "reports": len(rt.reports.reports),
        "num_gc": len(cycles),
        "liveness_checks": liveness,
        "mark_iterations": sum(c.mark_iterations for c in cycles),
        "mark_work_units": sum(c.mark_work_units for c in cycles),
        # The fixpoint's modeled cost, in the same virtual currency the
        # pause accounting charges.
        "fixpoint_ns": liveness * NS_PER_LIVENESS_CHECK,
        "proof_skips": sum(c.proof_skips for c in cycles),
    }
    rt.shutdown()
    return leg


def collect() -> dict:
    """Run the grid proofs-off/proofs-on; return the deterministic doc."""
    rows: List[dict] = []
    for workers in WORKER_GRID:
        analysis = analyze_callable_behavior(
            make_pool(workers), name=f"vet_pool_{workers}")
        registry = registry_for_analysis(analysis)
        off = _run_leg(workers, None)
        on = _run_leg(workers, registry)
        equivalent = (off["status"] == on["status"]
                      and off["report_labels"] == on["report_labels"]
                      and off["reports"] == on["reports"])
        reduction = (1.0 - on["liveness_checks"] / off["liveness_checks"]
                     if off["liveness_checks"] else 0.0)
        rows.append({
            "workers": workers,
            "proven_sites": len(registry),
            "equivalent": equivalent,
            "liveness_reduction": round(reduction, 4),
            "off": off,
            "on": on,
        })
    return {
        "schema": "repro-bench-vet/1",
        "seed": SEED,
        "procs": PROCS,
        "periodic_gc_ns": PERIODIC_GC_NS,
        "reduction_floor": REDUCTION_FLOOR,
        "rows": rows,
    }


def format_vet_bench(doc: dict) -> str:
    lines = [
        "detector-fixpoint cost with static proofs "
        f"(seed={doc['seed']} procs={doc['procs']})",
        "",
        f"  {'workers':>7s} {'proven':>6s} {'skips':>5s} "
        f"{'checks off':>10s} {'checks on':>9s} {'saved':>6s} "
        f"{'fixpoint off':>12s} {'fixpoint on':>11s}",
    ]
    for row in doc["rows"]:
        off, on = row["off"], row["on"]
        lines.append(
            f"  {row['workers']:>7d} {row['proven_sites']:>6d} "
            f"{on['proof_skips']:>5d} {off['liveness_checks']:>10d} "
            f"{on['liveness_checks']:>9d} "
            f"{row['liveness_reduction']:>5.0%} "
            f"{off['fixpoint_ns']:>10d}ns {on['fixpoint_ns']:>9d}ns")
    lines.append("")
    lines.append(
        f"  floors: equivalent reports, skips > 0 everywhere, "
        f">={doc['reduction_floor']:.0%} fewer liveness checks at "
        f"{doc['rows'][-1]['workers']} workers")
    return "\n".join(lines)


def check_floors(doc: dict) -> List[str]:
    """Acceptance-floor violations (empty = pass); shared with the gate."""
    problems = []
    for row in doc["rows"]:
        tag = f"{row['workers']} workers"
        if not row["equivalent"]:
            problems.append(f"{tag}: proofs-on leg diverged from "
                            f"proofs-off")
        if row["proven_sites"] < 1:
            problems.append(f"{tag}: pool channel no longer proven")
        if row["on"]["proof_skips"] < 1:
            problems.append(f"{tag}: proofs-on observed no skips")
        for field in ("liveness_checks", "mark_work_units"):
            if row["on"][field] > row["off"][field]:
                problems.append(
                    f"{tag}: proofs-on did more work ({field} "
                    f"{row['on'][field]} > {row['off'][field]})")
    last = doc["rows"][-1]
    if last["liveness_reduction"] < doc["reduction_floor"]:
        problems.append(
            f"{last['workers']} workers: liveness reduction "
            f"{last['liveness_reduction']:.0%} below floor "
            f"{doc['reduction_floor']:.0%}")
    return problems


def test_vet_proofs(benchmark):
    doc = once(benchmark, collect)
    emit("vet_proofs", format_vet_bench(doc))
    assert not check_floors(doc)
    codec.write(BENCH_PATH, doc)


if __name__ == "__main__":
    doc = collect()
    problems = check_floors(doc)
    codec.write(BENCH_PATH, doc)
    print(format_vet_bench(doc))
    for problem in problems:
        print(f"FLOOR VIOLATION: {problem}")
    print(f"\nwrote {BENCH_PATH}")
    raise SystemExit(1 if problems else 0)
