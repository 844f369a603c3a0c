"""CI gate: the committed BENCH_*.json files must still hold.

One gate per committed benchmark doc, each re-running its benchmark and
comparing field by field (:func:`repro.equivalence.diff_fields` over the
flattened docs), then applying that benchmark's acceptance floors:

- ``hotpath`` — ``BENCH_hotpath.json``.  *Deterministic* fields
  (instruction counts, final virtual clocks, mark work, candidate and
  deadlock counts) must match exactly: any drift means an RNG draw,
  cost-model or fixpoint change sneaked into a "performance-only"
  refactor.  Wall-clock fields are checked leniently, because CI
  hardware is slower and noisier than the machine the trajectory was
  pinned on: the committed dispatch speedup must clear
  ``DISPATCH_SPEEDUP_FLOOR`` and the fresh run must reach
  :data:`WALL_CLOCK_FLOOR` of each committed throughput.
- ``fleet`` — ``BENCH_fleet.json``.  Pure virtual-time simulation, so
  the whole doc must reproduce exactly; then the sustained-RPS speedup
  floors.
- ``vet`` — ``BENCH_vet.json``.  Likewise exact; then the proof-skip
  floors (equivalent reports, skips observed at every grid point, the
  liveness-check reduction at the largest pool).

A drifted doc must be regenerated deliberately, by running the
benchmark module the failure message names.

Usage::

    PYTHONPATH=src:. python benchmarks/check_bench_regression.py \
        [hotpath|fleet|vet|all]
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from typing import Any, Callable, Dict, List, Optional

from repro.equivalence import diff_fields

#: The fresh hot-path run is archived here for CI artifact upload.
FRESH_HOTPATH_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "out",
    "BENCH_hotpath.fresh.json")

#: Fresh wall-clock throughput may be this much worse than committed
#: before the gate trips.  Deliberately loose: the committed numbers
#: come from a quiet bare-metal run, CI runners are shared and slow.
WALL_CLOCK_FLOOR = 0.25

#: (label, section path, throughput field) floor-checked against the
#: committed hot-path doc.
_WALL_CHECKS = (
    ("dispatch", ("dispatch",), "ops_per_sec"),
    ("channel", ("channel",), "ops_per_sec"),
    ("marking", ("marking",), "marks_per_sec"),
    ("detector-restart", ("detector", "restart"), "fixpoints_per_sec"),
)


def flatten(doc: Any, row_key: Optional[Callable[[dict], Any]] = None,
            prefix: str = "") -> Dict[str, Any]:
    """Leaves of a nested doc as ``{"a.b.c": value}``.  ``rows`` (a list
    of dicts) is keyed by ``row_key(row)``; other lists are leaves."""
    if not isinstance(doc, dict):
        return {prefix[:-1]: doc}
    flat: Dict[str, Any] = {}
    for key, value in doc.items():
        if key == "rows" and row_key is not None:
            value = {f"[{row_key(row)}]": row for row in value}
        flat.update(flatten(value, None, f"{prefix}{key}."))
    return flat


def drift(committed: dict, fresh: dict,
          row_key: Optional[Callable[[dict], Any]] = None) -> List[str]:
    """Field-level differences between two docs (empty = match)."""
    return [f"{field}: committed {a!r} != fresh {b!r}"
            for field, a, b in diff_fields(flatten(committed, row_key),
                                           flatten(fresh, row_key))]


def _hotpath(bench, committed: dict) -> List[str]:
    fresh = bench.collect()
    print(bench.format_hotpath_bench(fresh))
    os.makedirs(os.path.dirname(FRESH_HOTPATH_PATH), exist_ok=True)
    bench.write_bench_json(fresh, FRESH_HOTPATH_PATH)

    problems = drift(bench.deterministic_view(committed),
                     bench.deterministic_view(fresh))
    # The pinned trajectory: the committed dispatch number must clear the
    # acceptance floor against the frozen pre-refactor baseline.
    speedup = committed["speedup_vs_pre_refactor"]["dispatch"]
    if speedup < bench.DISPATCH_SPEEDUP_FLOOR:
        problems.append(
            f"committed dispatch speedup {speedup} below the "
            f"{bench.DISPATCH_SPEEDUP_FLOOR}x floor")
    # Lenient wall-clock floors: catch collapses, tolerate slow runners.
    for label, path, field in _WALL_CHECKS:
        old, new = committed, fresh
        for part in path:
            old, new = old[part], new[part]
        if new[field] < WALL_CLOCK_FLOOR * old[field]:
            problems.append(
                f"{label} throughput {new[field]:,.1f} below "
                f"{WALL_CLOCK_FLOOR}x the committed {old[field]:,.1f}")
    return problems


def _fleet(bench, committed: dict) -> List[str]:
    fresh = bench.collect()
    print(bench.format_fleet_bench(fresh))
    problems = drift(committed, fresh,
                     row_key=lambda r: (r["shards"], r["mode"]))
    for shards, floor in sorted(bench.SPEEDUP_FLOORS.items()):
        speedup = fresh["rps_speedup_vs_1_shard"][str(shards)]
        if speedup < floor:
            problems.append(
                f"{shards}-shard RPS speedup {speedup} below floor {floor}")
    return problems


def _vet(bench, committed: dict) -> List[str]:
    fresh = bench.collect()
    print(bench.format_vet_bench(fresh))
    return (drift(committed, fresh, row_key=lambda r: r["workers"])
            + bench.check_floors(fresh))


#: gate name -> (benchmark module owning the committed doc, its gate)
GATES = {
    "hotpath": ("bench_hotpath", _hotpath),
    "fleet": ("bench_fleet_scaling", _fleet),
    "vet": ("bench_vet_proofs", _vet),
}


def run_gate(name: str) -> bool:
    module, gate = GATES[name]
    bench = importlib.import_module(f"benchmarks.{module}")
    doc_name = os.path.basename(bench.BENCH_PATH)
    try:
        with open(bench.BENCH_PATH) as fh:
            committed = json.load(fh)
    except FileNotFoundError:
        print(f"FAIL: {bench.BENCH_PATH} not committed", file=sys.stderr)
        return False
    problems = gate(bench, committed)
    if problems:
        print(f"\nFAIL: {doc_name} check ({len(problems)} problem(s)):",
              file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        print("\nIf the change is intentional, regenerate with:\n"
              f"  PYTHONPATH=src:. python benchmarks/{module}.py",
              file=sys.stderr)
        return False
    print(f"\nOK: {doc_name} reproduces; floors hold")
    return True


def main(argv: List[str]) -> int:
    which = argv[1] if len(argv) > 1 else "all"
    if which != "all" and which not in GATES:
        print(f"usage: {argv[0]} [{'|'.join(GATES)}|all]", file=sys.stderr)
        return 2
    names = list(GATES) if which == "all" else [which]
    # Run every requested gate even after a failure: one CI run should
    # list all the drift there is.
    results = [run_gate(name) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
