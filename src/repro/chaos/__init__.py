"""Deterministic fault injection for the simulated runtime.

The chaos engine perturbs the runtime at its natural interposition
points — scheduler yield points, timers, the GC pacer, the service
layer's downstream calls — and checks that GOLF's guarantees hold *under*
the perturbation:

- **soundness**: no live goroutine is ever reported (the scheduler's
  wake-of-reported tripwire raises :class:`~repro.errors.SchedulerError`
  the instant a reported goroutine would resume);
- **integrity**: :func:`repro.runtime.invariants.check_invariants` stays
  clean after every injected fault and at the end of every schedule;
- **idempotence**: once a schedule quiesces, additional GC cycles detect
  and reclaim nothing.

Everything is reproducible: a fault schedule is fully determined by
``(benchmark, procs, seed, scenario)``, and every injection attempt is
recorded in a replayable trace (:class:`FaultRecord`).

Typical use::

    from repro.chaos import run_chaos_campaign

    report = run_chaos_campaign(seeds=200, scenario="mixed")
    assert report.false_positives == 0
    assert report.invariant_violations == 0
"""

from repro import lazy_exports

_EXPORTS = {
    "ChaosReport": "report",
    "FaultInjector": "injector",
    "FaultKind": "plan",
    "FaultPlan": "plan",
    "FaultRecord": "plan",
    "RECOVERY_P99_SLO_NS": "recovery",
    "RecoveryReport": "recovery",
    "RecoveryScheduleResult": "recovery",
    "SCENARIOS": "scenarios",
    "SUCCESS_RATE_SLO": "recovery",
    "Scenario": "scenarios",
    "ScheduleResult": "report",
    "get_scenario": "scenarios",
    "run_chaos_campaign": "report",
    "run_chaos_schedule": "report",
    "run_recovery_campaign": "recovery",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
