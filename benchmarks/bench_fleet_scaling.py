"""Fleet scaling: sustained RPS and leak throughput vs shard count.

Weak scaling: a constant number of users per shard, so doubling the
shard count doubles the offered load.  Because shards serve their users
concurrently on independent virtual clocks, the fleet's makespan stays
roughly flat while completed requests grow with the shard count — the
sustained-RPS and leaks/sec curves should therefore be near-linear in
the number of shards, in both execution modes (which the equivalence
oracle keeps identical).

The collected grid is written over the committed ``BENCH_fleet.json`` at
the repo root.  Every field is virtual-time exact, so CI regenerates it
and fails on any ``git status`` change.
"""

from __future__ import annotations

import os
from typing import List

from repro import codec
from repro.fleet.aggregate import equivalence_diff
from repro.fleet.supervisor import FleetConfig, run_fleet

#: The benchmark grid.  Everything here feeds the deterministic
#: virtual-time simulation, so the resulting numbers are exact.
BENCH_SCHEMA_VERSION = 1
SHARD_COUNTS = (1, 2, 4)
USERS_PER_SHARD = 24
SEED = 7
POLICY = "load"  # balanced placement: the fair scaling comparison
LEAK_RATE = 0.1
MODES = ("sequential", "multiprocessing")

#: Acceptance floors for multiprocessing-mode sustained-RPS speedup
#: over the single-shard fleet.
SPEEDUP_FLOORS = {2: 1.6, 4: 2.5}

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_fleet.json")


def _config(shards: int) -> FleetConfig:
    return FleetConfig(shards=shards, seed=SEED,
                       users=USERS_PER_SHARD * shards,
                       policy=POLICY, leak_rate=LEAK_RATE)


def collect() -> dict:
    """Run the full grid and return the deterministic benchmark doc."""
    rows: List[dict] = []
    by_key = {}
    for shards in SHARD_COUNTS:
        results = {mode: run_fleet(_config(shards), mode) for mode in MODES}
        mismatches = equivalence_diff(results["sequential"],
                                      results["multiprocessing"])
        for mode in MODES:
            fleet = results[mode]
            row = {
                "shards": shards,
                "mode": mode,
                "users": fleet.total_users,
                "requests_completed": fleet.total_requests,
                "makespan_ns": fleet.makespan_ns,
                "sustained_rps": round(fleet.sustained_rps, 3),
                "leaks_detected": fleet.total_leaks_detected,
                "leaks_per_s": round(fleet.leaks_per_s, 3),
                "fingerprints": len(fleet.fingerprints),
                "clean": fleet.clean,
                "modes_equivalent": not mismatches,
            }
            rows.append(row)
            by_key[(shards, mode)] = row
    base = by_key[(1, "multiprocessing")]["sustained_rps"]
    speedups = {
        str(shards): round(
            by_key[(shards, "multiprocessing")]["sustained_rps"] / base, 3)
        for shards in SHARD_COUNTS
    }
    leak_base = by_key[(1, "multiprocessing")]["leaks_per_s"]
    leak_speedups = {
        str(shards): round(
            by_key[(shards, "multiprocessing")]["leaks_per_s"] / leak_base, 3)
        for shards in SHARD_COUNTS
    }
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "seed": SEED,
        "users_per_shard": USERS_PER_SHARD,
        "policy": POLICY,
        "leak_rate": LEAK_RATE,
        "shard_counts": list(SHARD_COUNTS),
        "rows": rows,
        "rps_speedup_vs_1_shard": speedups,
        "leak_speedup_vs_1_shard": leak_speedups,
        "speedup_floors": {str(k): v for k, v in SPEEDUP_FLOORS.items()},
    }


def test_fleet_scaling():
    doc = collect()

    rows = {(r["shards"], r["mode"]): r for r in doc["rows"]}
    for row in doc["rows"]:
        assert row["clean"], row
        assert row["modes_equivalent"], row
    # Both modes agree on every deterministic number.
    for shards in SHARD_COUNTS:
        seq, mp = rows[(shards, "sequential")], rows[(shards, "multiprocessing")]
        assert {k: v for k, v in seq.items() if k != "mode"} == \
               {k: v for k, v in mp.items() if k != "mode"}
    # The acceptance floors: near-linear sustained-RPS scaling.
    for shards, floor in SPEEDUP_FLOORS.items():
        speedup = doc["rps_speedup_vs_1_shard"][str(shards)]
        assert speedup >= floor, (
            f"{shards}-shard RPS speedup {speedup} below floor {floor}")
    # Leak-detection throughput scales too (leaks are ~proportional to
    # traffic, so anything at or above the RPS floors is near-linear).
    assert doc["leak_speedup_vs_1_shard"]["4"] > 1.5

    codec.write(BENCH_PATH, doc)
