"""Service workload simulators for the production-side experiments.

- :mod:`repro.service.controlled` — the paper's Table 2 setup: an RPC
  server with per-request goroutine fan-out, 100K-entry maps and a
  controllable "double send" leak rate, exercised by a closed-loop
  client.
- :mod:`repro.service.production` — the Table 3 / RQ1(c) setup: a
  long-running service emitting latency/CPU metrics every three minutes,
  with the three low-rate ``SendEmail`` leak sites of Listing 7.
- :mod:`repro.service.longrun` — the Figure 1 setup: weeks of virtual
  uptime with weekday redeployments that mask the leak until weekends.
- :mod:`repro.service.resilience` — the chaos-experiment variant of the
  production service: context deadlines, retry with backoff + jitter,
  and a circuit breaker around the downstream dependency, with GOLF
  reclaiming the residual Listing-7 leaks resilience cannot see.
- :mod:`repro.service.checkpointed` — the checkpoint/restart proving
  ground: a worker-pool pipeline with deterministic poison wedges, the
  detection daemon condemning them, subsystem rollback restarting the
  pool, and a zero-data-loss oracle over acknowledged work.
"""

from repro import lazy_exports

_EXPORTS = {
    "CheckpointedConfig": "checkpointed",
    "CheckpointedResult": "checkpointed",
    "run_checkpointed": "checkpointed",
    "CircuitBreaker": "resilience",
    "ControlledConfig": "controlled",
    "ControlledResult": "controlled",
    "run_controlled": "controlled",
    "ProductionConfig": "production",
    "ProductionResult": "production",
    "run_production": "production",
    "LongRunConfig": "longrun",
    "LongRunResult": "longrun",
    "run_longrun": "longrun",
    "ResilienceConfig": "resilience",
    "ResilienceResult": "resilience",
    "RetryPolicy": "resilience",
    "run_resilient_production": "resilience",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
