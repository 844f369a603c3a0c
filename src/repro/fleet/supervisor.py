"""The fleet supervisor: N runtime shards under one roof.

A shard runs start to finish through :func:`~repro.fleet.shard.run_shard`;
the two execution modes differ only in where that call runs:

- ``sequential`` — the oracle mode: the shards run one after another in
  this process, in routing order.  Fully deterministic; same-seed runs
  are byte-identical, and only one shard's runtime is alive at a time.
- ``multiprocessing`` — each shard runs in its own worker process, from
  the *same* picklable spec, and ships its
  :class:`~repro.fleet.shard.ShardResult` home over a pipe.  Shards
  execute in parallel across cores, and because a shard's run is a pure
  function of its spec, the aggregated result is identical to
  sequential mode (the ``equivalence_diff`` oracle enforces this).

Per-shard virtual clocks advance independently — there is no global
pause and no cross-shard synchronization, the zone-based-VGC shape —
so the fleet's virtual makespan is its slowest shard, and sustained
throughput scales with the shard count.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.fleet.aggregate import FleetResult
from repro.fleet.router import (
    ROUTING_POLICIES,
    Router,
    TrafficModel,
    WORKLOADS,
)
from repro.fleet.shard import (
    HANDLER_WORK_US,
    MAP_ENTRIES,
    PERIODIC_GC_MS,
    STEP_MS,
    ShardResult,
    ShardSpec,
    run_shard,
)

FLEET_MODES = ("sequential", "multiprocessing")


class FleetConfig:
    """Knobs for one fleet run (traffic model + topology + shard shape)."""

    def __init__(
        self,
        shards: int = 2,
        seed: int = 0,
        users: int = 64,
        policy: str = "hash",
        workload: str = "controlled",
        leak_rate: float = 0.1,
        min_requests: int = 2,
        max_requests: int = 6,
        procs_per_shard: int = 2,
        daemon_interval_ms: Optional[float] = None,
    ):
        if shards < 1:
            raise ValueError("shards must be positive")
        if policy not in ROUTING_POLICIES:
            raise ValueError(
                f"policy must be one of {ROUTING_POLICIES}, got {policy!r}")
        if workload not in WORKLOADS:
            raise ValueError(
                f"workload must be one of {WORKLOADS}, got {workload!r}")
        self.shards = shards
        self.seed = seed
        self.users = users
        self.policy = policy
        self.workload = workload
        self.leak_rate = leak_rate
        self.min_requests = min_requests
        self.max_requests = max_requests
        self.procs_per_shard = procs_per_shard
        self.daemon_interval_ms = daemon_interval_ms

    def model(self) -> TrafficModel:
        return TrafficModel(
            n_users=self.users, min_requests=self.min_requests,
            max_requests=self.max_requests, leak_rate=self.leak_rate,
            workload=self.workload, seed=self.seed)

    def as_dict(self) -> dict:
        return {
            "shards": self.shards,
            "seed": self.seed,
            "policy": self.policy,
            "model": self.model().as_dict(),
            "procs_per_shard": self.procs_per_shard,
            "step_ms": STEP_MS,
            "periodic_gc_ms": PERIODIC_GC_MS,
            "handler_work_us": HANDLER_WORK_US,
            "map_entries": MAP_ENTRIES,
            "daemon_interval_ms": self.daemon_interval_ms,
        }


def _shard_worker(spec: ShardSpec, conn) -> None:
    """Worker-process entry: run one shard, ship the result, exit."""
    try:
        result = run_shard(spec)
        conn.send(("ok", result))
    except BaseException as exc:  # ship the failure, don't hang the pipe
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def _run_multiprocessing(specs: List[ShardSpec]) -> List[ShardResult]:
    # Imported here, not at module load: only this mode uses it, and
    # every importer of the fleet would otherwise pay its memory.
    import multiprocessing

    # fork inherits sys.path (and is fast); fall back to spawn where
    # fork does not exist — workers then re-import repro, so the
    # package must be importable, which the test/CI environments
    # guarantee.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
    workers = []
    for spec in specs:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_shard_worker,
                           args=(spec, child_conn),
                           name=f"fleet-shard-{spec.shard_id}")
        proc.start()
        child_conn.close()
        workers.append((spec, proc, parent_conn))
    results: List[ShardResult] = []
    for spec, proc, conn in workers:
        outcome: Optional[ShardResult] = None
        failure = ""
        try:
            status, payload = conn.recv()
            if status == "ok":
                outcome = payload
            else:
                failure = str(payload)
        except EOFError:
            failure = "worker exited without a result"
        finally:
            conn.close()
            proc.join()
        if outcome is None:
            # A dead worker must dirty the run, not crash aggregation:
            # synthesize an incomplete ShardResult carrying the error.
            outcome = ShardResult(spec.shard_id)
            outcome.users = len(spec.user_ids)
            outcome.invariant_violations = [
                f"worker failed: {failure or 'unknown error'}"]
        results.append(outcome)
    return results


def run_fleet(config: Optional[FleetConfig] = None,
              mode: str = "sequential") -> FleetResult:
    """Route the users, run every shard, and aggregate (what the CLI
    and benchmarks use)."""
    if mode not in FLEET_MODES:
        raise ValueError(
            f"mode must be one of {FLEET_MODES}, got {mode!r}")
    config = config or FleetConfig()
    model = config.model()
    router = Router(config.shards, policy=config.policy, seed=config.seed)
    routing = router.build_table(model)
    specs = [
        ShardSpec(
            shard_id=shard_id, fleet_seed=config.seed,
            user_ids=user_ids, model=model,
            procs=config.procs_per_shard,
            daemon_interval_ms=config.daemon_interval_ms)
        for shard_id, user_ids in sorted(routing.items())
    ]
    started = time.perf_counter()
    if mode == "sequential":
        shards = [run_shard(spec) for spec in specs]
    else:
        shards = _run_multiprocessing(specs)
    wall_s = time.perf_counter() - started
    return FleetResult(mode, config.as_dict(), routing, shards,
                       wall_s=wall_s)
