"""repro.fleet — a sharded multi-runtime fleet with leak aggregation.

The paper's GOLF detector is per-runtime: one heap, one collector, one
cooperative thread.  This package scales that out the way the
zone-based VGC literature prescribes — N fully independent runtime
shards (each with its own heap, scheduler, incremental collector, GOLF
detector, and optional detection daemon), no global pause, no shared
state — and adds the layer the paper's single runtime never needed:

- :mod:`repro.fleet.router` — a seeded million-user traffic model and a
  deterministic user → shard router (hash- or load-based placement,
  per-user session affinity);
- :mod:`repro.fleet.shard` — one shard = one runtime serving its routed
  users through the controlled/production leak workloads, run start to
  finish in bounded virtual-time slices by ``run_shard``;
- :mod:`repro.fleet.supervisor` — ``run_fleet``: `sequential` (the
  deterministic oracle: the shards one after another in this process)
  and `multiprocessing` (each shard in its own worker process, results
  over pipes) execution with identical semantics;
- :mod:`repro.fleet.aggregate` — merged leak reports with shard
  provenance, cross-shard :class:`FingerprintStore` dedup, fleet
  ``.prom`` exposition with a ``shard`` label on every instrument, and
  the `repro fleet` JSON artifact schema.

See docs/FLEET.md for the architecture walkthrough.
"""

from repro import lazy_exports

_EXPORTS = {
    "FLEET_MODES": "supervisor",
    "FLEET_SCHEMA_VERSION": "aggregate",
    "FleetConfig": "supervisor",
    "FleetResult": "aggregate",
    "ROUTING_POLICIES": "router",
    "Router": "router",
    "ShardResult": "shard",
    "ShardRunner": "shard",
    "ShardSpec": "shard",
    "TrafficModel": "router",
    "WORKLOADS": "router",
    "equivalence_diff": "aggregate",
    "run_fleet": "supervisor",
    "run_shard": "shard",
    "stable_hash64": "router",
    "validate_fleet_artifact": "aggregate",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
