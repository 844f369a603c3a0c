"""The end-to-end benchmark runner.

Two ways in, one measurement underneath (a worker subprocess per round,
see ``worker.py``):

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, as ``BENCHMARK.json`` declares it.  ``--trace 0``
    measures the end-to-end metrics over :data:`ROUNDS` fresh workers
    that share the ``--seconds`` budget; ``--trace 1`` does one traced
    run plus the four layer probes and reports the per-layer metrics.
    The last line of standard output is the result as one JSON object.

``PYTHONPATH=src:. python -m benchmarks.e2e [--seed N] [--self-check]``
    Every workload, round-robin (round 1 all workloads, round 2 all
    workloads, ... so machine drift hits every workload equally), then
    the traced runs and probes; prints every metric by name with unit,
    median, quartiles and sample count.  ``--self-check`` runs two full
    sets back to back and requires them to agree within the bounds.

Exit status is non-zero on any output-check violation.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Run as a script, sys.path[0] is this directory; imports need the
# package root and the sources of the program under test.
for _entry in (str(ROOT), str(ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

try:
    from benchmarks.e2e import stats  # noqa: E402
    from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402
except ImportError as exc:
    raise SystemExit(
        f"benchmarks.e2e: cannot import the program under test ({exc}); "
        "run from a full checkout")

OUT_DIR = HERE / "out"
#: ``--self-check`` writes here (git-ignored); the tracked
#: ``AA_SPREAD.json`` beside this file is a copy made when re-baselining.
AA_PATH = OUT_DIR / "AA_SPREAD.json"

#: Fresh worker processes per workload in one measurement; each gives
#: one ``setup_s`` / ``peak_rss_mb`` sample and several ``wall_s`` ones.
ROUNDS = 3

#: Shares of ``--seconds`` a traced run spends on its untraced
#: repetitions (the base of ``bench.trace_overhead_ratio``) and on the
#: reference workload of a paired metric.
TRACE_UNTRACED_SHARE = 0.3
REFERENCE_SHARE = 0.2

WORKER_TIMEOUT_S = 150

#: The pair behind ``telemetry.overhead_ratio`` (observed / bare).
OVERHEAD_PAIR = ("svc-prod-observed", "svc-prod")


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


class WorkerFailed(RuntimeError):
    pass


def _run_module(cmd: List[str], what: str) -> dict:
    """Run a child to completion; its last stdout line is its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # Same string hashes in every child: dict and set layouts, and with
    # them a little host time, would otherwise differ process to process.
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{what} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spawn_worker(workload: str, seed: int, budget_s: float,
                 trace: bool = False) -> dict:
    """Run one worker to completion and return its result document."""
    cmd = [sys.executable, "-m", "benchmarks.e2e.worker",
           "--workload", workload, "--seed", str(seed),
           "--budget-s", repr(budget_s),
           "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", str(OUT_DIR / f"trace-{workload}.json")]
    cmd += ["--spawned-at", repr(time.time())]
    return _run_module(cmd, f"worker for {workload}")


def run_probes(min_seconds: float) -> Dict[str, float]:
    from benchmarks.e2e.probes import layer_metrics

    doc = _run_module(
        [sys.executable, "-m", "benchmarks.e2e.probes", repr(min_seconds)],
        "probes")
    (OUT_DIR / "probes.json").write_text(json.dumps(doc, indent=1) + "\n")
    return layer_metrics(doc)


class Samples:
    """Everything the rounds of one workload produced."""

    def __init__(self, workload: str):
        self.workload = workload
        self.wall_s: List[float] = []
        self.wall_norm_s: List[float] = []
        self.setup_s: List[float] = []
        self.peak_rss_mb: List[float] = []
        self.ops_per_rep = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: List[str] = []
        self.sim_metrics: Dict[str, float] = {}
        self.paired: Optional[dict] = None

    def add(self, doc: dict) -> None:
        self.wall_s.extend(r["wall_s"] for r in doc["reps"])
        self.wall_norm_s.extend(r["wall_norm_s"] for r in doc["reps"])
        self.setup_s.append(doc["setup_s"])
        self.peak_rss_mb.append(doc["peak_rss_mb"])
        self.ops_per_rep = doc["ops_per_rep"]
        self.attempted += doc["attempted"]
        self.failed += doc["failed"]
        self.problems.extend(doc["problems"])
        self.digests.extend(doc["digests"])
        if self.sim_metrics and doc["sim_metrics"] != self.sim_metrics:
            self.problems.append(
                f"sim metrics changed between rounds: {doc['sim_metrics']} "
                f"vs {self.sim_metrics}")
        self.sim_metrics = doc["sim_metrics"]
        self.paired = doc["paired"]

    @property
    def digest_stable(self) -> bool:
        return len(set(self.digests)) == 1

    def end_to_end(self) -> Dict[str, Dict[str, float]]:
        """name -> {median, q1, q3, n} of the host-side metrics."""
        return {
            "wall_norm_s": stats.summarize(self.wall_norm_s),
            "peak_rss_mb": stats.summarize(self.peak_rss_mb),
            "setup_s": stats.summarize(self.setup_s),
        }

    def exact(self) -> Dict[str, float]:
        """The metrics that must repeat exactly for a seed."""
        return {
            "fail_share": self.failed / self.attempted,
            **self.sim_metrics,
            "sim_digest_stable": 1 if self.digest_stable else 0,
        }

    def check(self) -> List[str]:
        problems = list(self.problems)
        if not self.digest_stable:
            problems.append(
                f"{self.workload}: simulated statistics differ between "
                f"repetitions of one seed: {sorted(set(self.digests))}")
        return problems


def check_paired(name: str, mine: Optional[dict],
                 reference: Optional[dict]) -> List[str]:
    """Cross-workload output check: ``mine`` against the reference run."""
    ref_name = WORKLOADS[name].reference
    tolerance = WORKLOADS[name].paired_tolerance
    # A repetition that raised has no statistics, or only some of them.
    if not mine or not reference:
        return [f"{name}: no paired statistics to compare with {ref_name}"]
    if tolerance == 0:
        return ([] if mine == reference else
                [f"{name}: simulated results differ from {ref_name} "
                 f"(observers must be passive)"])
    problems = []
    for key, ref in reference.items():
        got = mine.get(key)
        if got is None or abs(got - ref) > tolerance * abs(ref):
            problems.append(
                f"{name}: {key}={got} is not within {tolerance:.0%} "
                f"of {ref_name}'s {ref}")
    return problems


# ---------------------------------------------------------------------------
# one workload (the BENCHMARK.json command)
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float) -> Samples:
    samples = Samples(workload)
    for _ in range(ROUNDS):
        samples.add(spawn_worker(workload, seed, seconds / ROUNDS))
    return samples


def traced_run(workload: str, seed: int, seconds: float,
               probe_metrics: Dict[str, float]):
    """(samples, per-layer metrics, exact counters) of one traced worker;
    metrics the contract lists but this run did not produce read 0."""
    doc = spawn_worker(workload, seed, seconds * TRACE_UNTRACED_SHARE,
                       trace=True)
    samples = Samples(workload)
    samples.add(doc)
    layers = dict(doc["traced"]["layers"])
    layers.update(probe_metrics)
    layers["bench.wall_s"] = stats.median(samples.wall_s)
    coverage = layers["bench.span_coverage"]
    if abs(coverage - 1.0) > 0.05:
        samples.problems.append(
            f"{workload}: bench.span_coverage={coverage:.3f} is not within "
            "0.05 of 1")
    return samples, layers, doc["traced"]["exact"]


def reference_samples(workload: str, seed: int, seconds: float
                      ) -> Optional[Samples]:
    ref = WORKLOADS[workload].reference
    if ref is None:
        return None
    samples = Samples(ref)
    samples.add(spawn_worker(ref, seed, seconds * REFERENCE_SHARE))
    return samples


def overhead_ratio(workload: str, mine: Samples,
                   reference: Optional[Samples]) -> float:
    if workload != OVERHEAD_PAIR[0] or reference is None:
        return 0.0
    return stats.median(mine.wall_s) / stats.median(reference.wall_s)


def print_metric(name: str, unit: str, summary: Dict[str, float]) -> None:
    print(f"  {name:<44s} {summary['median']:>14.6g} {unit:<8s} "
          f"q1={summary['q1']:.6g} q3={summary['q3']:.6g} n={summary['n']}")


def print_value(name: str, unit: str, value: float) -> None:
    print(f"  {name:<44s} {value:>14.6g} {unit}")


def run_one(args, contract: dict) -> int:
    """The declared command: one workload, one JSON line."""
    workload, seed, seconds = args.workload, args.seed, float(args.seconds)
    print(f"workload {workload} seed {seed} seconds {seconds:g} "
          f"trace {args.trace}")
    if args.trace:
        samples, layers, _ = traced_run(
            workload, seed, seconds, run_probes(min(1.0, seconds / 10)))
        reference = reference_samples(workload, seed, seconds)
        layers["telemetry.overhead_ratio"] = overhead_ratio(
            workload, samples, reference)
        metrics = {}
        for spec in contract["per_layer"]:
            value = float(layers.get(spec["name"], 0.0))
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
            print_value(spec["name"], spec["unit"], value)
    else:
        samples = measure(workload, seed, seconds)
        reference = reference_samples(workload, seed, seconds)
        summaries = samples.end_to_end()
        metrics = {}
        for spec in contract["end_to_end"]:
            print_metric(spec["name"], spec["unit"], summaries[spec["name"]])
            metrics[spec["name"]] = {
                "value": summaries[spec["name"]]["median"],
                "unit": spec["unit"]}
        print_metric("wall_s (raw, not gated)", "s",
                     stats.summarize(samples.wall_s))
        for name, value in samples.exact().items():
            print_value(name, "exact", value)
        print(f"  sim digest {samples.digests[0]}")
    problems = samples.check()
    if reference is not None:
        problems += reference.check()
        problems += check_paired(workload, samples.paired, reference.paired)
    for problem in problems:
        print(f"  VIOLATION: {problem}")
    correct = not problems and samples.failed == 0
    print(json.dumps({"correct": correct, "attempted": samples.attempted,
                      "failed": samples.failed, "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload (the ledger), and the A/A self-check
# ---------------------------------------------------------------------------


def run_set(seed: int, seconds: float) -> dict:
    """One full set: untraced rounds round-robin, then the traced runs."""
    names = list(WORKLOADS)
    samples = {name: Samples(name) for name in names}
    for rnd in range(ROUNDS):
        for name in names:
            print(f"  round {rnd + 1}/{ROUNDS} {name}", file=sys.stderr)
            samples[name].add(spawn_worker(name, seed, seconds / ROUNDS))
    problems: List[str] = []
    for name in names:
        problems += samples[name].check()
        ref = WORKLOADS[name].reference
        if ref is not None:
            problems += check_paired(name, samples[name].paired,
                                     samples[ref].paired)
    layers: Dict[str, Dict[str, float]] = {}
    exact: Dict[str, dict] = {}
    probe_metrics = run_probes(1.0)
    for name in names:
        print(f"  traced {name}", file=sys.stderr)
        traced, layers[name], exact[name] = traced_run(
            name, seed, seconds, probe_metrics)
        problems += traced.check()
        if traced.digests[0] != samples[name].digests[0]:
            problems.append(f"{name}: traced run's simulated statistics "
                            "differ from the untraced rounds'")
        layers[name]["telemetry.overhead_ratio"] = overhead_ratio(
            name, samples[name], samples.get(WORKLOADS[name].reference))
    return {"samples": samples, "layers": layers, "exact": exact,
            "problems": problems}


def print_set(result: dict, contract: dict) -> None:
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    for name, samples in result["samples"].items():
        print(f"\n== {name}  (ops/rep {samples.ops_per_rep}, "
              f"digest {samples.digests[0][:16]})")
        for metric, summary in samples.end_to_end().items():
            print_metric(metric, bounds[metric]["unit"], summary)
        print_metric("wall_s (raw, not gated)", "s",
                     stats.summarize(samples.wall_s))
        for metric, value in samples.exact().items():
            print_value(metric, "exact", value)
        for metric, value in result["layers"].get(name, {}).items():
            print_value(metric, "", value)
    for problem in result["problems"]:
        print(f"VIOLATION: {problem}")


def self_check(first: dict, second: dict, contract: dict) -> List[str]:
    """Two sets of the same code must agree: host metrics within their
    bounds, simulated and exact numbers identically."""
    problems: List[str] = []
    observed: Dict[str, Dict[str, float]] = {}
    print("\nA/A spread (worsening of one set's median against the "
          "other's, per metric x workload)")
    for name in WORKLOADS:
        a, b = first["samples"][name], second["samples"][name]
        ea, eb = a.end_to_end(), b.end_to_end()
        for spec in contract["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            base, new = ea[metric]["median"], eb[metric]["median"]
            # Neither set is the parent: take the worse direction.
            drift = max(stats.worsening(spec["better"], base, new),
                        stats.worsening(spec["better"], new, base))
            observed.setdefault(metric, {})[name] = drift
            verdict = "ok" if drift <= bound else "EXCEEDS"
            print(f"  {metric:<16s} {name:<22s} {drift:8.2%}  "
                  f"bound {bound:.0%}  {verdict}")
            if drift > bound:
                problems.append(
                    f"A/A: {metric} on {name} differs by {drift:.1%} "
                    f"(bound {bound:.0%}): {base:.6g} vs {new:.6g}")
        if a.exact() != b.exact() or a.digests[0] != b.digests[0]:
            problems.append(f"A/A: simulated metrics of {name} differ: "
                            f"{a.exact()} vs {b.exact()}")
        if first["exact"].get(name) != second["exact"].get(name):
            problems.append(f"A/A: exact layer counts of {name} differ: "
                            f"{first['exact'].get(name)} vs "
                            f"{second['exact'].get(name)}")
    doc = {
        "what": "observed A/A spread of --self-check: two full sets of the "
                "same code, share by which one set's median is worse than "
                "the other's",
        "bounds": {m["name"]: m["bound"] for m in contract["end_to_end"]},
        "observed": observed,
    }
    AA_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {AA_PATH.relative_to(ROOT)}")
    return problems


def run_all(args, contract: dict) -> int:
    seconds = float(args.seconds or contract["run_seconds"])
    print(f"benchmarks.e2e: seed {args.seed}, {ROUNDS} rounds sharing "
          f"{seconds:g} s per workload, {len(WORKLOADS)} workloads")
    first = run_set(args.seed, seconds)
    print_set(first, contract)
    problems = list(first["problems"])
    if args.self_check:
        second = run_set(args.seed, seconds)
        print_set(second, contract)
        problems += second["problems"] + self_check(first, second, contract)
    failed = sum(s.failed for s in first["samples"].values())
    print(f"\n{'FAILED' if problems or failed else 'ok'}: "
          f"{len(problems)} violation(s), {failed} failed op(s)")
    return 1 if problems or failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=list(WORKLOADS),
                    help="measure one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=None,
                    help="host seconds one run measures "
                         "(default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 = per-layer metrics")
    ap.add_argument("--self-check", action="store_true",
                    help="run two full sets and require them to agree")
    args = ap.parse_args(argv)
    contract = load_contract()
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload is None:
        return run_all(args, contract)
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
