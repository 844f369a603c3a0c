"""Fault plans: seeded, replayable schedules of injection decisions.

A :class:`FaultPlan` owns the chaos RNG and decides, at each
interposition point the injector offers it, whether to fire and which
fault kind to fire.  Because the runtime itself is deterministic given
``(program, procs, seed)`` and the plan is deterministic given
``(seed, scenario)``, re-running a schedule with the same parameters
reproduces the *identical* sequence of injections — the trace of
:class:`FaultRecord` entries is byte-for-byte replayable, which the
determinism tests assert.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.scenarios import Scenario


class FaultKind:
    """The fault vocabulary (string constants, not an enum, so traces
    serialize to JSON without adapters)."""

    #: Panic the currently executing goroutine at its yield point.
    PANIC_SELF = "panic-self"
    #: Panic a random *blocked* goroutine (purging its wait-queue state).
    PANIC_BLOCKED = "panic-blocked"
    #: Spurious wakeup of a random timer-parked goroutine.
    SPURIOUS_WAKE = "spurious-wake"
    #: Force a full GC cycle mid-instruction.
    FORCE_GC = "force-gc"
    #: Perturb the pacer target (starve or hasten organic GC).
    GC_PERTURB = "gc-perturb"
    #: Advance the virtual clock by a random jitter.
    CLOCK_JITTER = "clock-jitter"
    #: Spawn short-lived churn goroutines to cycle the ``*g`` free pool.
    REUSE_PRESSURE = "reuse-pressure"
    #: Shrink the incremental collector's mark/sweep budgets to tiny
    #: values (maximally fragmented phases; rejected in atomic mode).
    GC_BUDGET_PERTURB = "gc-budget-perturb"
    #: Arm a one-shot clock jitter on the next write-barrier shade
    #: (a fault landing *inside* the barrier; rejected in atomic mode).
    BARRIER_JITTER = "barrier-jitter"
    #: Downstream dependency fails fast (service layer polls for this).
    DOWNSTREAM_FAIL = "downstream-fail"
    #: Downstream dependency responds slowly (service layer polls).
    DOWNSTREAM_SLOW = "downstream-slow"

    #: Kinds the scheduler-level injector dispatches (downstream faults
    #: are polled by the service layer instead).
    SCHEDULER_KINDS = (
        PANIC_SELF, PANIC_BLOCKED, SPURIOUS_WAKE, FORCE_GC,
        GC_PERTURB, CLOCK_JITTER, REUSE_PRESSURE,
        GC_BUDGET_PERTURB, BARRIER_JITTER,
    )


class FaultRecord:
    """One injection attempt, as recorded in the replayable trace.

    ``outcome`` is ``"injected"`` when the fault fired, or ``"rejected"``
    when the runtime legally refused it (no eligible victim, spurious
    wakeup of a detectably blocked goroutine, panic into a reported
    goroutine...).  Rejections are part of the trace: a sound runtime is
    *allowed* to refuse a fault, but it must refuse deterministically.
    """

    __slots__ = ("index", "time_ns", "kind", "target_goid", "detail",
                 "outcome")

    def __init__(self, index: int, time_ns: int, kind: str,
                 target_goid: int, detail: str, outcome: str):
        self.index = index
        self.time_ns = time_ns
        self.kind = kind
        self.target_goid = target_goid
        self.detail = detail
        self.outcome = outcome

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "time_ns": self.time_ns,
            "kind": self.kind,
            "target_goid": self.target_goid,
            "detail": self.detail,
            "outcome": self.outcome,
        }

    def __repr__(self) -> str:
        return (
            f"<fault #{self.index} {self.kind} g{self.target_goid} "
            f"{self.outcome} @{self.time_ns}ns>"
        )


class FaultPlan:
    """Decides when and what to inject; records what happened.

    Args:
        seed: chaos RNG seed — independent of the runtime's scheduling
            seed so the two sources of nondeterminism can be varied
            separately.
        scenario: the fault mix (see :mod:`repro.chaos.scenarios`).
    """

    def __init__(self, seed: int, scenario: "Scenario"):
        self.seed = seed
        self.scenario = scenario
        self.rng = random.Random(seed ^ 0xC4A05)
        self.trace: List[FaultRecord] = []
        #: Records in ``trace`` whose outcome is "injected", kept by
        #: :meth:`record` (the only writer; a record's outcome never
        #: changes) because :meth:`next_fault` reads it at every yield.
        self._injected = 0
        self._kinds, self._weights = scenario.scheduler_mix()

    # -- decisions ---------------------------------------------------------

    def next_fault(self) -> Optional[str]:
        """Called at every yield point: the kind to inject, or None.

        Stops offering faults once ``max_faults`` injections fired, so a
        schedule's tail (the settle + GC phase of the microbench
        template) runs undisturbed and detection always gets a chance to
        quiesce.
        """
        if not self._kinds or self.injected_count() >= self.scenario.max_faults:
            return None
        if self.rng.random() >= self.scenario.rate:
            return None
        return self.rng.choices(self._kinds, weights=self._weights, k=1)[0]

    def downstream_outcome(self) -> Tuple[str, int]:
        """Service-layer poll: ``(outcome, extra_latency_ns)``.

        ``outcome`` is ``"ok"``, ``"fail"`` or ``"slow"``; slow calls
        carry the extra latency the dependency takes to answer.
        """
        roll = self.rng.random()
        if roll < self.scenario.downstream_fail_rate:
            return "fail", 0
        if roll < (self.scenario.downstream_fail_rate
                   + self.scenario.downstream_slow_rate):
            return "slow", self.rng.randrange(*self.scenario.slow_extra_ns)
        return "ok", 0

    def jitter_ns(self) -> int:
        return self.rng.randrange(*self.scenario.clock_jitter_ns)

    def pacing_factor(self) -> float:
        return self.rng.choice(self.scenario.pacing_factors)

    def churn_count(self) -> int:
        return self.rng.randrange(*self.scenario.churn_goroutines)

    # -- trace --------------------------------------------------------------

    def record(self, time_ns: int, kind: str, target_goid: int,
               detail: str, outcome: str) -> FaultRecord:
        rec = FaultRecord(len(self.trace), time_ns, kind, target_goid,
                          detail, outcome)
        self.trace.append(rec)
        if outcome == "injected":
            self._injected += 1
        return rec

    def injected_count(self) -> int:
        return self._injected

    def rejected_count(self) -> int:
        return sum(1 for r in self.trace if r.outcome == "rejected")

    def injected_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for r in self.trace:
            if r.outcome == "injected":
                counts[r.kind] = counts.get(r.kind, 0) + 1
        return counts

    def trace_dicts(self) -> List[Dict[str, object]]:
        return [r.to_dict() for r in self.trace]
