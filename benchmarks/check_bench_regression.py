"""CI gate: the committed BENCH_*.json files must still hold.

One gate per committed benchmark doc, each re-running its benchmark and
comparing field by field (:func:`repro.equivalence.diff_fields` over the
flattened docs), then applying that benchmark's acceptance floors:

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
        [fleet|vet|all]
"""

from __future__ import annotations

import importlib
import os
import sys
from typing import Any, Callable, Dict, List, Optional

from repro import codec
from repro.equivalence import diff_fields


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
    "fleet": ("bench_fleet_scaling", _fleet),
    "vet": ("bench_vet_proofs", _vet),
}


def run_gate(name: str) -> bool:
    module, gate = GATES[name]
    bench = importlib.import_module(f"benchmarks.{module}")
    doc_name = os.path.basename(bench.BENCH_PATH)
    try:
        committed = codec.read(bench.BENCH_PATH)
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
