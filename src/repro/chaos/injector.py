"""The fault injector: wires a :class:`FaultPlan` into a runtime.

The injector installs itself as the scheduler's ``fault_hook``, which
fires at every yield point — after an instruction's simulated cost
elapses, before its effect applies.  That is exactly a Go preemption
point: the goroutine's state is consistent, its in-flight operands are
still rooted by the processor, and anything the runtime does next must
tolerate being interrupted there.

After every *fired* injection the injector immediately sweeps the whole
runtime with :func:`repro.runtime.invariants.check_invariants` and
stores any violation — chaos without an oracle is just noise.
"""

from __future__ import annotations

from typing import List, Optional

from repro.chaos.plan import FaultKind, FaultPlan
from repro.errors import InjectedPanic
from repro.runtime.goroutine import Goroutine
from repro.runtime.instructions import Instruction


def _churn():
    """Body of a reuse-pressure goroutine: exits at its first yield
    point, sending its descriptor straight back to the free pool."""
    return
    yield  # pragma: no cover - makes this a generator function


class FaultInjector:
    """Delivers a plan's faults into one :class:`~repro.runtime.api.Runtime`.

    Args:
        rt: the runtime to perturb.
        plan: the fault plan (owns the RNG and the trace).

    Attributes:
        violations: invariant violations observed after injections, each
            prefixed with the fault record that preceded it.
    """

    def __init__(self, rt, plan: FaultPlan):
        self.rt = rt
        self.plan = plan
        self.violations: List[str] = []
        self.yield_points = 0

    def install(self) -> "FaultInjector":
        self.rt.sched.fault_hook = self._on_yield
        return self

    def uninstall(self) -> None:
        # == not `is`: each `self._on_yield` access builds a fresh bound
        # method, so identity comparison would never match.
        if self.rt.sched.fault_hook == self._on_yield:
            self.rt.sched.fault_hook = None

    # -- the hook -----------------------------------------------------------

    def _on_yield(self, g: Goroutine,
                  instr: Instruction) -> Optional[BaseException]:
        """Scheduler fault hook: maybe perturb; maybe hand back a panic."""
        self.yield_points += 1
        kind = self.plan.next_fault()
        if kind is None:
            return None
        dispatch = self._DISPATCH[kind]
        result = dispatch(self, g, instr)
        if self.plan.trace and self.plan.trace[-1].outcome == "injected":
            record = self.plan.trace[-1]
            tracer = self.rt.sched.tracer
            if tracer is not None:
                tracer.on_fault(record.kind, record.target_goid,
                                record.detail)
            self._check_after_fault(record)
        return result

    def _check_after_fault(self, record) -> None:
        for problem in self.rt.check_invariants():
            self.violations.append(f"after {record!r}: {problem}")
        # With the incremental collector mid-mark, also verify the
        # tricolor invariant the write barrier exists to maintain: no
        # black object may point at a white one.
        for problem in self.rt.collector.check_barrier_invariant():
            self.violations.append(f"after {record!r}: {problem}")

    # -- fault implementations ----------------------------------------------

    def _panic_self(self, g: Goroutine, instr) -> Optional[BaseException]:
        # Main is never a victim: it keeps the harness template's GC
        # phase alive (the benchmark bodies remain fair game).
        if g.is_system or g is self.rt.sched.main_g:
            self.plan.record(self.rt.clock.now, FaultKind.PANIC_SELF,
                             g.goid, "victim is system/main", "rejected")
            return None
        self.plan.record(self.rt.clock.now, FaultKind.PANIC_SELF, g.goid,
                         f"at {type(instr).__name__}", "injected")
        return InjectedPanic(f"chaos: injected panic in goroutine {g.goid}")

    def _panic_blocked(self, g: Goroutine, instr) -> None:
        sched = self.rt.sched
        victims = [
            v for v in sched.blocked_goroutines()
            if not v.is_system and not v.reported and v is not sched.main_g
        ]
        if not victims:
            self.plan.record(self.rt.clock.now, FaultKind.PANIC_BLOCKED,
                             0, "no eligible victim", "rejected")
            return None
        victim = victims[self.plan.rng.randrange(len(victims))]
        reason = victim.wait_reason.value if victim.wait_reason else "?"
        exc = InjectedPanic(
            f"chaos: injected panic in blocked goroutine {victim.goid}")
        delivered = sched.deliver_panic(victim, exc)
        self.plan.record(
            self.rt.clock.now, FaultKind.PANIC_BLOCKED, victim.goid,
            f"was [{reason}]", "injected" if delivered else "rejected")
        return None

    def _spurious_wake(self, g: Goroutine, instr) -> None:
        sched = self.rt.sched
        sleepers = [
            v for v in sched.blocked_goroutines()
            if not v.is_system and v.wake_at is not None
            and not v.is_blocked_detectably
        ]
        if not sleepers:
            self.plan.record(self.rt.clock.now, FaultKind.SPURIOUS_WAKE,
                             0, "no timer-parked goroutine", "rejected")
            return None
        victim = sleepers[self.plan.rng.randrange(len(sleepers))]
        woken = sched.try_spurious_wakeup(victim)
        self.plan.record(
            self.rt.clock.now, FaultKind.SPURIOUS_WAKE, victim.goid,
            f"deadline was {victim.wake_at or 0}",
            "injected" if woken else "rejected")
        return None

    def _force_gc(self, g: Goroutine, instr) -> None:
        self.plan.record(self.rt.clock.now, FaultKind.FORCE_GC, g.goid,
                         f"during {type(instr).__name__}", "injected")
        self.rt.gc(reason="chaos")
        return None

    def _gc_perturb(self, g: Goroutine, instr) -> None:
        factor = self.plan.pacing_factor()
        self.rt.collector.perturb_pacing(factor)
        self.plan.record(self.rt.clock.now, FaultKind.GC_PERTURB, g.goid,
                         f"factor={factor}", "injected")
        return None

    def _clock_jitter(self, g: Goroutine, instr) -> None:
        jitter = self.plan.jitter_ns()
        self.rt.clock.advance(jitter)
        self.plan.record(self.rt.clock.now, FaultKind.CLOCK_JITTER, g.goid,
                         f"+{jitter}ns", "injected")
        return None

    def _reuse_pressure(self, g: Goroutine, instr) -> None:
        count = self.plan.churn_count()
        for _ in range(count):
            self.rt.sched.spawn(_churn, name="chaos-churn", system=True,
                                go_site="<chaos>")
        self.plan.record(self.rt.clock.now, FaultKind.REUSE_PRESSURE,
                         g.goid, f"spawned {count} churn goroutines",
                         "injected")
        return None

    def _gc_budget_perturb(self, g: Goroutine, instr) -> None:
        config = self.rt.config
        if not config.incremental:
            self.plan.record(self.rt.clock.now, FaultKind.GC_BUDGET_PERTURB,
                             g.goid, "atomic gc mode", "rejected")
            return None
        mark = self.plan.rng.randrange(1, 33)
        sweep = self.plan.rng.randrange(1, 33)
        config.mark_budget = mark
        config.sweep_budget = sweep
        self.plan.record(self.rt.clock.now, FaultKind.GC_BUDGET_PERTURB,
                         g.goid, f"mark={mark} sweep={sweep}", "injected")
        return None

    def _barrier_jitter(self, g: Goroutine, instr) -> None:
        heap = self.rt.heap
        if not self.rt.config.incremental:
            self.plan.record(self.rt.clock.now, FaultKind.BARRIER_JITTER,
                             g.goid, "atomic gc mode", "rejected")
            return None
        # One-shot: the next write-barrier shade jumps the virtual clock,
        # modeling a fault landing inside the barrier itself.  The jitter
        # is drawn now so the trace is deterministic even if no shade
        # ever happens.
        jitter = self.plan.jitter_ns()
        clock = self.rt.clock

        def hook(src, obj):
            heap.barrier_hook = None
            clock.advance(jitter)

        heap.barrier_hook = hook
        self.plan.record(self.rt.clock.now, FaultKind.BARRIER_JITTER,
                         g.goid, f"armed +{jitter}ns", "injected")
        return None

    _DISPATCH = {
        FaultKind.PANIC_SELF: _panic_self,
        FaultKind.PANIC_BLOCKED: _panic_blocked,
        FaultKind.SPURIOUS_WAKE: _spurious_wake,
        FaultKind.FORCE_GC: _force_gc,
        FaultKind.GC_PERTURB: _gc_perturb,
        FaultKind.CLOCK_JITTER: _clock_jitter,
        FaultKind.REUSE_PRESSURE: _reuse_pressure,
        FaultKind.GC_BUDGET_PERTURB: _gc_budget_perturb,
        FaultKind.BARRIER_JITTER: _barrier_jitter,
    }
