"""Named fault scenarios: the chaos engine's workload presets.

A :class:`Scenario` is a declarative fault mix — per-yield-point firing
rate, relative weights of the scheduler-level fault kinds, downstream
failure rates for the service layer, and the numeric ranges the
individual faults draw from.  Scenarios are plain data so schedules stay
reproducible and traces self-describing.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.chaos.plan import FaultKind
from repro.runtime.clock import MILLISECOND


class Scenario:
    """One fault-injection preset.

    Args:
        name: scenario identifier (CLI ``--scenario`` value).
        rate: probability of attempting an injection at each yield point.
        weights: relative weight per scheduler-level fault kind; kinds
            absent from the mapping never fire.
        max_faults: cap on fired injections per schedule, so the settle
            and GC phases of a run always get an undisturbed tail.
        downstream_fail_rate / downstream_slow_rate: probabilities the
            service layer's dependency poll returns a failure / a slow
            response.
        slow_extra_ns: ``(lo, hi)`` range of extra latency for slow
            downstream responses.

    The ranges the clock-jitter, pacer and reuse-pressure faults draw
    from are the same for every scenario (:mod:`repro.chaos.plan`).
    """

    __slots__ = ("name", "rate", "weights", "max_faults",
                 "downstream_fail_rate", "downstream_slow_rate",
                 "slow_extra_ns")

    def __init__(
        self,
        name: str,
        rate: float = 0.02,
        weights: Dict[str, int] = None,
        max_faults: int = 25,
        downstream_fail_rate: float = 0.0,
        downstream_slow_rate: float = 0.0,
        slow_extra_ns: Tuple[int, int] = (1 * MILLISECOND, 20 * MILLISECOND),
    ):
        self.name = name
        self.rate = rate
        self.weights = dict(weights or {})
        self.max_faults = max_faults
        self.downstream_fail_rate = downstream_fail_rate
        self.downstream_slow_rate = downstream_slow_rate
        self.slow_extra_ns = slow_extra_ns

    def scheduler_mix(self) -> Tuple[List[str], List[int]]:
        """The (kinds, weights) lists for weighted fault choice."""
        kinds = sorted(self.weights)
        return kinds, [self.weights[k] for k in kinds]

    def __repr__(self) -> str:
        return f"<scenario {self.name} rate={self.rate} {self.weights}>"


SCENARIOS: Dict[str, Scenario] = {
    # Goroutines die unexpectedly — mid-handshake, mid-select, while
    # holding sudogs.  Exercises panic unwinding, wait-queue purging and
    # the new-leaks-from-dead-peers path of the detector.
    "panic-storm": Scenario(
        "panic-storm",
        rate=0.03,
        weights={
            FaultKind.PANIC_SELF: 3,
            FaultKind.PANIC_BLOCKED: 2,
            FaultKind.SPURIOUS_WAKE: 1,
        },
    ),
    # GC timing chaos: forced cycles at arbitrary instruction boundaries
    # plus pacer starvation/hastening.  GOLF's verdicts must not depend
    # on when cycles happen.
    "gc-chaos": Scenario(
        "gc-chaos",
        rate=0.015,
        weights={
            FaultKind.FORCE_GC: 3,
            FaultKind.GC_PERTURB: 2,
        },
        max_faults=15,
    ),
    # Incremental-GC phase chaos: faults land at write-barrier shades
    # and phase boundaries — forced cycles while one is in flight,
    # budgets shrunk so phases fragment maximally, jitter inside the
    # barrier, panics/wakes perturbing the candidate set mid-mark.  The
    # injector checks the tricolor invariant after every fault.  Its
    # incremental-only kinds make run_chaos_schedule pick the
    # incremental collector.
    "gc-phase": Scenario(
        "gc-phase",
        rate=0.02,
        weights={
            FaultKind.FORCE_GC: 3,
            FaultKind.GC_BUDGET_PERTURB: 3,
            FaultKind.BARRIER_JITTER: 2,
            FaultKind.GC_PERTURB: 1,
            FaultKind.PANIC_BLOCKED: 1,
            FaultKind.SPURIOUS_WAKE: 1,
        },
        max_faults=20,
    ),
    # Virtual-time jumps: timers fire in bursts, deadlines expire early
    # relative to instruction progress.
    "clock-jitter": Scenario(
        "clock-jitter",
        rate=0.05,
        weights={FaultKind.CLOCK_JITTER: 1},
        max_faults=40,
    ),
    # Descriptor-reuse pressure: churn goroutines cycle the free pool so
    # reclaimed descriptors are rebound quickly, plus panics to feed the
    # pool from the unwind path too.
    "reuse-pressure": Scenario(
        "reuse-pressure",
        rate=0.03,
        weights={
            FaultKind.REUSE_PRESSURE: 2,
            FaultKind.PANIC_BLOCKED: 1,
            FaultKind.FORCE_GC: 1,
        },
    ),
    # Service-layer chaos: the downstream dependency fails or crawls.
    # Scheduler-level faults stay off; the resilience tests drive this.
    "downstream": Scenario(
        "downstream",
        rate=0.0,
        weights={},
        downstream_fail_rate=0.15,
        downstream_slow_rate=0.25,
    ),
    # A hard downstream outage: failures cluster enough to trip circuit
    # breakers, and slow responses blow through request deadlines.
    "downstream-outage": Scenario(
        "downstream-outage",
        rate=0.0,
        weights={},
        downstream_fail_rate=0.45,
        downstream_slow_rate=0.30,
        slow_extra_ns=(80 * MILLISECOND, 400 * MILLISECOND),
    ),
    # Recovery chaos: worker panics and stray wakeups layered on top of
    # the checkpointed pipeline's deterministic poison wedges.  The
    # recovery campaign drives this against the checkpoint/restart
    # machinery: wedges must still be condemned, rollbacks must still
    # land, and the zero-data-loss oracle must stay clean while faults
    # kill workers mid-job.  Mild rates: the SLO under test is the
    # recovery path, not pool extinction.
    "recovery": Scenario(
        "recovery",
        rate=0.004,
        weights={
            FaultKind.PANIC_SELF: 2,
            FaultKind.PANIC_BLOCKED: 1,
            FaultKind.SPURIOUS_WAKE: 1,
            FaultKind.CLOCK_JITTER: 1,
            FaultKind.FORCE_GC: 1,
        },
        max_faults=8,
    ),
    # Everything at once — the default campaign scenario.
    "mixed": Scenario(
        "mixed",
        rate=0.025,
        weights={
            FaultKind.PANIC_SELF: 2,
            FaultKind.PANIC_BLOCKED: 2,
            FaultKind.SPURIOUS_WAKE: 1,
            FaultKind.FORCE_GC: 2,
            FaultKind.GC_PERTURB: 1,
            FaultKind.CLOCK_JITTER: 2,
            FaultKind.REUSE_PRESSURE: 1,
        },
        downstream_fail_rate=0.05,
        downstream_slow_rate=0.10,
    ),
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown chaos scenario {name!r}; "
            f"choose from {sorted(SCENARIOS)}"
        ) from None
