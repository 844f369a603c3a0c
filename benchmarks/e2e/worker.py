"""One workload in one fresh process.

The runner starts ``python -m benchmarks.e2e.worker`` once per
(round, workload), so no Python heap carries over between workloads and
``setup_s`` / ``peak_rss_mb`` are per workload.  The worker

1. imports, builds the inputs and runs a 1/50-scale warm-up — all of
   which is *set-up*, timed from the moment the runner spawned it;
2. repeats the measured region until its time budget is spent (at least
   twice), judging the outputs of every repetition and timing the
   calibration loop (``calibrate.py``) around each one;
3. with ``--trace 1`` then installs the layer wrappers, runs the
   workload once more under a root span, runs the wrapper self-test and
   writes the spans to ``--trace-out``;
4. prints one JSON document as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from typing import Any, Dict, List

from benchmarks.e2e import stats
from benchmarks.e2e.calibrate import NOMINAL_S, Calibrator
from benchmarks.e2e.workloads import WARMUP_SCALE, WORKLOADS, Outcome


#: Calibration passes before the first and after every repetition.
CAL_PASSES = 2

#: Every worker repeats the measured region at least this often, so each
#: one checks that the simulated statistics repeat exactly.
MIN_REPS = 2


def _failed_outcome(exc: BaseException) -> Outcome:
    """A run that raised (panic, global deadlock, ...) is one failed op."""
    detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return Outcome(1, 1, [f"run raised {detail}"], {}, {})


def _execute(workload, inputs):
    """Run + judge once; returns (wall_s, cpu_s, outcome)."""
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        result = workload.run(inputs)
    except Exception as exc:  # the run's failure is the measurement
        traceback.print_exc(file=sys.stderr)
        return (time.perf_counter() - wall0, time.process_time() - cpu0,
                _failed_outcome(exc))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return wall, cpu, workload.judge(inputs, result)


def _traced(workload, inputs, untraced_wall: float, out_path: str,
            meta: dict, full_size: bool) -> Dict[str, Any]:
    """The traced run: spans, wrapper self-test, per-layer numbers."""
    from benchmarks.e2e.layers import ROOT, Tracing
    from benchmarks.e2e.spans import SpanRecorder

    rec = SpanRecorder()
    tracing = Tracing(rec).install()
    try:
        gc.collect()
        cpu0 = time.process_time()
        root = rec.begin(ROOT)
        try:
            result = workload.run(inputs)
        finally:
            wall = rec.end(root)
        cpu = time.process_time() - cpu0
    finally:
        tracing.uninstall()
    outcome = workload.judge(inputs, result)
    # Below the benchmark size a layer may legitimately see no work (no
    # leak in a 36 s production run); the exact counts still must agree.
    tracing.verify(workload.uses if full_size else ())
    layers = tracing.metrics(root)
    layers.update({
        "service.sim_requests": outcome.attempted - outcome.failed,
        "chaos.faults_injected": outcome.sim.get("total_faults_injected", 0),
        "bench.cpu_s": cpu,
        "bench.preempt_s": wall - cpu,
        "bench.trace_overhead_ratio": (
            wall / untraced_wall if untraced_wall else 0.0),
    })
    if out_path:
        rec.write(out_path, meta={**meta, "spans": len(rec),
                                  "traced_wall_s": wall})
    return {"layers": layers, "digest": stats.digest(outcome.sim),
            "spans": len(rec), "problems": outcome.problems,
            "exact": {k: tracing.own[k] for k in sorted(tracing.own)}}


def _fleet_multiprocessing(inputs, sequential_sim) -> Dict[str, Any]:
    """One ``mode="multiprocessing"`` run: informational wall time, and
    it must be equivalent to the sequential result."""
    from repro.fleet import run_fleet

    t0 = time.perf_counter()
    parallel = run_fleet(inputs, mode="multiprocessing")
    wall = time.perf_counter() - t0
    doc = parallel.to_dict()
    doc.pop("mode")
    reference = dict(sequential_sim)
    reference.pop("mode")
    problems = ([] if doc == reference and parallel.clean else
                ["fleet multiprocessing result differs from sequential"])
    return {"mp_wall_s": wall, "problems": problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="benchmarks.e2e.worker")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--budget-s", type=float, default=0.0,
                    help="repeat the measured region until this much host "
                         "time is spent (always at least MIN_REPS times)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default="")
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="time.time() at which the runner spawned us")
    args = ap.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()

    workload = WORKLOADS[args.workload]
    warm = workload.prepare(args.seed, args.scale * WARMUP_SCALE)
    workload.judge(warm, workload.run(warm))
    inputs = workload.prepare(args.seed, args.scale)
    calibrator = Calibrator()
    calibrator.run()  # first touch; the next pass is the first sample
    setup_s = time.time() - spawned_at

    reps: List[Dict[str, float]] = []
    problems: List[str] = []
    digests: List[str] = []
    attempted = failed = 0
    outcome = None
    began = time.perf_counter()
    cal_samples = [calibrator.run() for _ in range(CAL_PASSES)]
    while True:
        wall, cpu, outcome = _execute(workload, inputs)
        cal_samples.extend(calibrator.run() for _ in range(CAL_PASSES))
        reps.append({"wall_s": wall, "cpu_s": cpu})
        attempted += outcome.attempted
        failed += outcome.failed
        problems.extend(outcome.problems)
        digests.append(stats.digest(outcome.sim))
        # Past the minimum, start another repetition only if at least
        # half of it fits the budget.
        if (len(reps) >= MIN_REPS
                and time.perf_counter() - began + wall / 2 > args.budget_s):
            break
    # One normaliser for the whole worker: the median of the samples
    # taken between its repetitions follows the machine's drift without
    # adding each 50 ms sample's own jitter to a 1-2 s repetition.
    cal_s = stats.median(cal_samples)
    for rep in reps:
        rep["wall_norm_s"] = rep["wall_s"] * NOMINAL_S / cal_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    doc: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "setup_s": setup_s,
        "cal_s": cal_s,
        "reps": reps,
        "ops_per_rep": outcome.attempted,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": digests,
        "sim_metrics": outcome.sim_metrics,
        "paired": outcome.paired,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        untraced = stats.median([r["wall_s"] for r in reps])
        meta = {"workload": workload.name, "seed": args.seed,
                "scale": args.scale, "untraced_wall_s": untraced}
        traced = _traced(workload, inputs, untraced, args.trace_out, meta,
                         full_size=args.scale >= 1.0)
        if traced["digest"] != digests[0]:
            traced["problems"].append(
                "traced run changed the simulated statistics")
        if workload.name == "fleet-4shard":
            mp = _fleet_multiprocessing(inputs, outcome.sim)
            traced["layers"]["fleet.mp_wall_s"] = mp["mp_wall_s"]
            traced["problems"].extend(mp["problems"])
        problems.extend(traced.pop("problems"))
        doc["traced"] = traced
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
