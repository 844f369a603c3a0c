"""The one-walk run loop against the three-walk loop it replaced.

``Scheduler.run`` used to walk ``procs`` three times per event: once to
fill idle processors (``_dispatch_idle_procs``), once for the earliest
completion, once to complete.  It now makes one walk that ends at the
last busy processor, on a busy count ``_start_instruction`` /
``_complete`` / ``kill`` keep.  The old loop lives on here, verbatim, as
the reference: patched onto ``Scheduler``, it must produce the same
fingerprint and the same trace records — every instruction slice's
``(time, pid, goid, mnemonic, cost)`` among them — as the new loop on
the whole equivalence corpus, with a ticker installed, and under the
chaos faults that make the visit-time re-reads matter (a forced GC
stalls the other processors mid-walk, clock jitter moves ``now``).
"""

from __future__ import annotations

import contextlib
from typing import Optional

import pytest

from repro import GolfConfig, Runtime
from repro.chaos import FaultInjector, FaultKind, FaultPlan
from repro.chaos import get_scenario, run_recovery_campaign
from repro.equivalence import Leg, corpus, run_leg
from repro.errors import GlobalDeadlockError, GoPanic
from repro.runtime.goroutine import GStatus
from repro.runtime.instructions import Go, Gosched, MakeChan, Recv, Send
from repro.runtime.scheduler import RunStatus, Scheduler, _Proc
from repro.service.checkpointed import CheckpointedConfig
from repro.trace import events as ev


# -- the reference: the loop as it stood before the one walk ------------------


def reference_run(self, until_ns: Optional[int] = None,
                  max_instructions: Optional[int] = None) -> str:
    procs = self.procs
    timers = self._timers
    tickers = self._tickers
    clock = self.clock
    gc_step_hook = self.gc_step_hook
    while True:
        if self.crashed is not None:
            _, exc = self.crashed
            raise exc
        if self._main_exited:
            return RunStatus.MAIN_EXITED
        if (max_instructions is not None
                and self.instructions_executed >= max_instructions):
            return RunStatus.INSTRUCTION_LIMIT

        now = clock.now
        if timers and timers[0][0] <= now:
            self._wake_due_timers()
        # After due sleepers are runnable, before anything is
        # dispatched: a tick sees the same goroutine states whatever
        # the RNG picks next.
        if tickers and tickers[0][0] <= now:
            self._fire_due_tickers()
        if self.runq:
            self._dispatch_idle_procs()
            if self.crashed is not None or self._main_exited:
                continue  # re-run the terminal checks at the loop top

        # Earliest mutator completion, without a snapshot list.
        t_user: Optional[int] = None
        any_busy = False
        for p in procs:
            if p.g is not None:
                any_busy = True
                bu = p.busy_until
                if t_user is None or bu < t_user:
                    t_user = bu
        if not any_busy:
            # No mutator is running: drive any in-flight GC cycle at
            # the *current* clock before jumping time or declaring
            # deadlock — goroutines parked in runtime.GC (GC_WAIT)
            # become runnable when it completes.  This runs before
            # ticker times are considered, so incremental cycles
            # complete at the same virtual times with or without a
            # ticker installed.
            if gc_step_hook is not None and gc_step_hook():
                continue
        else:
            # The next *user-relevant* event: a mutator instruction
            # completing or a user timer firing.  GC stepping is tied
            # to these only; a ticker coming due advances the clock
            # between them but never steps the collector, keeping the
            # incremental phase machine byte-identical ticker on/off.
            if timers and timers[0][0] < t_user:
                t_user = timers[0][0]
            t_next = t_user
            if tickers and tickers[0][0] < t_next:
                t_next = tickers[0][0]
            if until_ns is not None and t_next > until_ns:
                clock.advance_to(until_ns)
                return RunStatus.TIMEOUT
            clock.advance_to(t_next)
            # Busy/idle and the clock are re-read per processor: a
            # completion may stall others (fault-forced GC) or jitter
            # the clock, and both must be seen at visit time.
            for p in procs:
                if p.g is not None and p.busy_until <= clock.now:
                    self._complete(p)
            if gc_step_hook is not None and t_next == t_user:
                # Incremental GC: one bounded mark/sweep budget per
                # scheduler tick, interleaved with mutator progress.
                gc_step_hook()
            continue

        # Either jump to the next timer — a pending ticker keeps the
        # loop alive exactly as a system goroutine's sleep does — or
        # stop.
        if timers or tickers:
            t = min(h[0][0] for h in (timers, tickers) if h)
            if until_ns is not None and t > until_ns:
                clock.advance_to(until_ns)
                return RunStatus.TIMEOUT
            clock.advance_to(t)
            continue
        if self.runq:
            continue  # dispatch again (procs freed this iteration)
        waiting_user = [
            g for g in self.allgs
            if g.status == GStatus.WAITING and not g.is_system
        ]
        if waiting_user:
            raise GlobalDeadlockError(
                len(waiting_user), dump=self.goroutine_dump(waiting_user))
        return RunStatus.IDLE


def reference_dispatch_idle_procs(self) -> None:
    runq = self.runq
    randrange = self.rng.randrange
    for p in self.procs:
        # A dispatched goroutine may finish (or crash) instantly
        # without occupying the processor; keep pulling runnable
        # goroutines until the processor is genuinely busy, so an
        # idle processor always implies an empty run queue.
        while p.g is None and runq and self.crashed is None:
            idx = randrange(len(runq))
            runq[idx], runq[-1] = runq[-1], runq[idx]
            self._start_instruction(p, runq.pop())


def reference_complete(self, p: _Proc) -> None:
    g, instr = p.g, p.instr
    assert g is not None and instr is not None
    self.instructions_executed += 1
    if self.fault_hook is not None:
        # The proc still holds the instruction while the hook runs,
        # so a fault-forced GC sees its operands as in-flight roots.
        injected = self.fault_hook(g, instr)
        if injected is not None:
            p.g = None
            p.instr = None
            self.resume(g, exc=injected)
            return
    p.g = None
    p.instr = None
    try:
        self._execute(self, g, instr)
    except GoPanic as panic:
        # Synchronous panics (close of closed channel, negative
        # WaitGroup...) unwind through the goroutine body so its
        # try/finally blocks (defer analogs) run.
        self.resume(g, exc=panic)


def _reference_complete_recounting(self, p: _Proc) -> None:
    """The reference loop never reads the busy count, but the invariant
    sweep the chaos injector runs after every fault does: recount after
    each completion so both legs are audited alike."""
    reference_complete(self, p)
    self._busy = sum(q.g is not None for q in self.procs)


@contextlib.contextmanager
def reference_loop():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Scheduler, "run", reference_run)
        patch.setattr(Scheduler, "_dispatch_idle_procs",
                      reference_dispatch_idle_procs, raising=False)
        patch.setattr(Scheduler, "_complete", _reference_complete_recounting)
        yield


# -- what one run produced ----------------------------------------------------


def _traced(rt: Runtime, _program) -> None:
    rt.enable_tracing()


def _traced_with_daemon(rt: Runtime, _program) -> None:
    rt.enable_tracing()
    rt.detect_partial_deadlock(interval_ms=1.0)


def _chaos(scenario: str, seed: int):
    def hook(rt: Runtime, _program) -> None:
        rt.enable_tracing()
        # Parked on the runtime for observe() to read back.
        rt.injector = FaultInjector(
            rt, FaultPlan(seed, get_scenario(scenario))).install()
    return hook


def observe(leg: Leg, program, procs: int, seed: int) -> dict:
    rt, fingerprint = run_leg(leg, program, procs, seed)
    seen = {"fingerprint": fingerprint, "records": rt.tracer.records,
            "dropped": rt.tracer.dropped}
    injector = getattr(rt, "injector", None)
    if injector is not None:
        seen["faults"] = injector.plan.trace_dicts()
        seen["violations"] = injector.violations
    return seen


def sweep_both_loops(leg: Leg, procs: int, seed: int):
    """What the new loop produced on each corpus program, after
    asserting the reference loop produced the same."""
    programs = corpus()
    new = [observe(leg, program, procs, seed) for program in programs]
    with reference_loop():
        old = [observe(leg, program, procs, seed) for program in programs]
    for program, a, b in zip(programs, new, old):
        where = f"{program.name} procs={procs} seed={seed} {leg.label}"
        assert a["fingerprint"] == b["fingerprint"], where
        for i, (ra, rb) in enumerate(zip(a["records"], b["records"])):
            assert ra == rb, f"{where}: record {i}"
        assert a == b, where
    return new


def _instr_pids(runs):
    return {r[3] for seen in runs for r in seen["records"]
            if r[1] == ev.INSTR}


# -- the differential sweeps --------------------------------------------------


@pytest.mark.parametrize("gc_mode", ["atomic", "incremental"])
@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("procs", [1, 2, 4, 10])
def test_corpus(procs, seed, gc_mode):
    leg = Leg(gc_mode, lambda: GolfConfig(gc_mode=gc_mode), hook=_traced)
    runs = sweep_both_loops(leg, procs, seed)
    assert len(runs) == 125
    assert all(seen["dropped"] == 0 for seen in runs)
    # Several processors really were busy at once: the lowest idle pid
    # is filled first, so a slice on pid 1 means pid 0 was taken.
    assert _instr_pids(runs) >= set(range(min(procs, 4)))


@pytest.mark.parametrize("gc_mode", ["atomic", "incremental"])
def test_corpus_with_a_ticker_installed(gc_mode):
    leg = Leg(f"{gc_mode}+daemon", lambda: GolfConfig(gc_mode=gc_mode),
              hook=_traced_with_daemon)
    sweep_both_loops(leg, procs=2, seed=7)


@pytest.mark.parametrize("scenario, gc_mode", [
    ("clock-jitter", "atomic"), ("clock-jitter", "incremental"),
    ("gc-chaos", "atomic"), ("gc-phase", "incremental"),
    ("mixed", "atomic"), ("mixed", "incremental"),
])
@pytest.mark.parametrize("procs", [2, 4])
def test_corpus_under_chaos(procs, scenario, gc_mode):
    seed = 11
    leg = Leg(f"{scenario}/{gc_mode}", lambda: GolfConfig(gc_mode=gc_mode),
              hook=_chaos(scenario, seed))
    runs = sweep_both_loops(leg, procs, seed)
    assert all(seen["violations"] == [] for seen in runs)
    injected = [f["kind"] for seen in runs for f in seen["faults"]
                if f["outcome"] == "injected"]
    wanted = {"clock-jitter": {FaultKind.CLOCK_JITTER},
              "gc-chaos": {FaultKind.FORCE_GC},
              "gc-phase": {FaultKind.FORCE_GC},
              "mixed": {FaultKind.CLOCK_JITTER, FaultKind.FORCE_GC}}
    assert wanted[scenario] <= set(injected)
    assert len(_instr_pids(runs)) > 1


@pytest.mark.parametrize("procs", [2, 4, 8])
def test_recovery_campaign(procs):
    """Checkpoint rollbacks ``kill`` whole subsystems under a daemon
    ticker and the chaos injector at every yield.  (No schedule here
    catches a worker mid-instruction; the directed case below does.)"""
    def campaign():
        report = run_recovery_campaign(
            seeds=12, base_seed=100, config=CheckpointedConfig(procs=procs))
        return [s.to_dict() for s in report.schedules]

    new = campaign()
    with reference_loop():
        old = campaign()
    assert new == old
    assert sum(s["recoveries"] for s in new) > 0
    assert sum(s["injected"] for s in new) > 0
    assert all(s["invariant_problems"] == [] for s in new)


# -- the visit-time re-reads, where they decide --------------------------------


def _saturated_under_faults(gc_mode: str, seed: int) -> dict:
    """Nine spinners on four processors, and a fault hook on a fixed
    cadence: a 300 ns clock jump every 5th yield — longer than any
    instruction, so the next busy processor in pid order comes due
    *during* the completion pass — a forced GC every 17th, and every
    97th a ``kill`` of a goroutine that holds another processor."""
    rt = Runtime(procs=4, seed=seed, config=GolfConfig(gc_mode=gc_mode))
    rt.enable_tracing()
    sched, clock = rt.sched, rt.clock
    state = {"yields": 0, "jumped": None, "decided": 0, "killed": 0}

    def hook(g, instr):
        state["yields"] += 1
        if state["jumped"] is not None:
            before, jumper = state["jumped"]
            state["jumped"] = None
            holder = next(p for p in sched.procs if p.g is g)
            # Not due when the pass began, completing in it all the same
            # (no dispatch happened since: the jumper is still queued).
            if holder.busy_until > before and jumper in sched.runq:
                state["decided"] += 1
        if state["yields"] % 5 == 0:
            state["jumped"] = (clock.now, g)
            clock.advance(300)
        elif state["yields"] % 17 == 0:
            rt.gc(reason="chaos")
        elif state["yields"] % 97 == 0:
            for p in sched.procs:
                if p.g not in (None, g, sched.main_g):
                    sched.kill(p.g)
                    state["killed"] += 1
                    break
        return None

    def spinner():
        for _ in range(60):
            yield Gosched()

    def main():
        for _ in range(8):
            yield Go(spinner)
        yield from spinner()

    sched.fault_hook = hook
    rt.spawn_main(main)
    status = rt.run()
    return {"status": status, "clock": clock.now,
            "instructions": sched.instructions_executed,
            "num_gc": rt.collector.stats.num_gc,
            "records": rt.tracer.records, "decided": state["decided"],
            "killed": state["killed"], "violations": rt.check_invariants()}


@pytest.mark.parametrize("gc_mode", ["atomic", "incremental"])
@pytest.mark.parametrize("seed", [7, 11])
def test_completions_reread_at_visit_time(seed, gc_mode):
    new = _saturated_under_faults(gc_mode, seed)
    with reference_loop():
        old = _saturated_under_faults(gc_mode, seed)
    assert new == old
    assert new["decided"] > 10 and new["num_gc"] > 10
    assert new["killed"] >= 3
    assert new["violations"] == []


# -- structure: visits follow busy processors, not GOMAXPROCS -----------------


class _CountingProc(_Proc):
    """A processor that counts reads of ``g``, its busy/idle test."""

    __slots__ = ()
    reads = 0

    @property
    def g(self):
        _CountingProc.reads += 1
        return _Proc.g.__get__(self)

    @g.setter
    def g(self, value):
        _Proc.g.__set__(self, value)


def _reads_of_proc_g(procs: int) -> int:
    """Main and one worker bounce 200 values over an unbuffered
    channel: never more than two runnable goroutines, no GC."""
    def worker(ch):
        for _ in range(200):
            yield Recv(ch)

    def main():
        ch = yield MakeChan(0)
        yield Go(worker, ch)
        for i in range(200):
            yield Send(ch, i)

    rt = Runtime(procs=procs, seed=7)
    rt.sched.procs = [_CountingProc(i) for i in range(procs)]
    rt.spawn_main(main)
    _CountingProc.reads = 0
    assert rt.run() == RunStatus.MAIN_EXITED
    assert rt.collector.stats.num_gc == 0
    assert rt.sched.instructions_executed > 400
    return _CountingProc.reads


def test_processor_visits_do_not_grow_with_procs():
    few, many = _reads_of_proc_g(8), _reads_of_proc_g(64)
    assert few == many > 0
    with reference_loop():
        assert _reads_of_proc_g(64) > _reads_of_proc_g(8) > few
