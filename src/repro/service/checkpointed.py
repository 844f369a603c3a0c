"""A checkpointed job pipeline: recovery's end-to-end proving ground.

A pool of workers drains a shared job channel; a host-side submitter
feeds jobs in with at-least-once delivery and an acknowledgement
ledger.  Some jobs are *poisoned*: the first attempt to process one
wedges its worker forever (a receive on a channel nobody sends on —
the classic partial deadlock), while redelivered attempts process
normally, modeling transient stall conditions.

The worker pool is registered as a :class:`~repro.core.checkpoint`
subsystem, the detection daemon runs on a timer, and the pipeline
demonstrates the paper's recovery story end to end:

1. a poisoned job wedges a worker;
2. the daemon's next fixpoint condemns the wedged goroutine;
3. the checkpoint manager rolls the subsystem back (channels restored
   to the last quiescent checkpoint, every worker respawned);
4. the submitter redelivers unacknowledged jobs;
5. the **zero-data-loss oracle** checks that every acknowledged job has
   a durable record — acknowledgements are only sent *after* the
   durable write, so a rollback can duplicate work but never lose it.

Durability is modeled by a host-side list the workers append to before
acking: host state stands in for external storage that survives
subsystem restarts by construction.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Set

from repro.core.checkpoint import CheckpointManager, WorkerSpec
from repro.core.config import GolfConfig
from repro.runtime.api import Runtime
from repro.runtime.clock import MILLISECOND, SECOND
from repro.runtime.instructions import Recv, Send, Sleep, Work


class CheckpointedConfig:
    """Knobs for the checkpointed pipeline workload."""

    def __init__(
        self,
        procs: int = 2,
        seed: int = 1,
        workers: int = 4,
        jobs: int = 48,
        poison_rate: float = 0.15,
        work_us: int = 200,
        daemon_interval_ms: float = 10.0,
        redeliver_after_ms: int = 40,
        deadline_ms: int = 2_000,
    ):
        if not 0.0 <= poison_rate <= 1.0:
            raise ValueError("poison_rate must be in [0, 1]")
        self.procs = procs
        self.seed = seed
        self.workers = workers
        self.jobs = jobs
        self.poison_rate = poison_rate
        self.work_us = work_us
        self.daemon_interval_ms = daemon_interval_ms
        self.redeliver_after_ms = redeliver_after_ms
        self.deadline_ms = deadline_ms


class CheckpointedResult:
    """Outcome of one pipeline run, including the data-loss oracle."""

    def __init__(self, config: CheckpointedConfig):
        self.config = config
        self.jobs_total = config.jobs
        self.jobs_acked = 0
        self.durable_records = 0
        self.duplicate_records = 0
        #: Acked jobs with no durable record — must always be empty.
        self.lost_jobs: List[int] = []
        self.poisoned_jobs = 0
        self.redeliveries = 0
        self.recoveries = 0
        self.recovery_ns: List[int] = []
        self.checkpoints_taken = 0
        self.daemon_checks = 0
        self.daemon_skipped = 0
        self.leaks_reported = 0
        self.finished_at_ns = 0
        self.invariant_problems: List[str] = []

    @property
    def completed(self) -> bool:
        return self.jobs_acked == self.jobs_total

    @property
    def zero_data_loss(self) -> bool:
        return not self.lost_jobs

    @property
    def clean(self) -> bool:
        return (self.completed and self.zero_data_loss
                and not self.invariant_problems)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "jobs_total": self.jobs_total,
            "jobs_acked": self.jobs_acked,
            "durable_records": self.durable_records,
            "duplicate_records": self.duplicate_records,
            "lost_jobs": list(self.lost_jobs),
            "poisoned_jobs": self.poisoned_jobs,
            "redeliveries": self.redeliveries,
            "recoveries": self.recoveries,
            "recovery_ns": list(self.recovery_ns),
            "checkpoints_taken": self.checkpoints_taken,
            "daemon_checks": self.daemon_checks,
            "leaks_reported": self.leaks_reported,
            "finished_at_ns": self.finished_at_ns,
            "completed": self.completed,
            "zero_data_loss": self.zero_data_loss,
            "invariant_problems": list(self.invariant_problems),
        }

    def __repr__(self) -> str:
        return (
            f"<checkpointed acked={self.jobs_acked}/{self.jobs_total} "
            f"recoveries={self.recoveries} "
            f"loss={'none' if self.zero_data_loss else self.lost_jobs}>"
        )


def run_checkpointed(config: Optional[CheckpointedConfig] = None,
                     telemetry=None,
                     fault_plan=None) -> CheckpointedResult:
    """Run the checkpointed pipeline once.

    ``fault_plan`` (a :class:`~repro.chaos.FaultPlan`) additionally
    installs the chaos injector, so workers can be panicked or
    spuriously woken mid-job on top of the deterministic poison wedges.
    """
    config = config or CheckpointedConfig()
    rt = Runtime(procs=config.procs, seed=config.seed, config=GolfConfig())
    if telemetry is not None:
        telemetry.attach(rt)
    mgr = CheckpointManager(rt)

    jobs_ch = rt.make_chan(capacity=2 * config.workers, label="pipeline-jobs")
    ack_ch = rt.make_chan(capacity=config.jobs, label="pipeline-acks")
    # The trap is reachable only from wedged worker stacks, so B(g)
    # closes over nothing live and the wedge is a detectable leak.
    trap_ch = rt.make_chan(capacity=0, label="pipeline-trap")

    host_rng = random.Random(config.seed ^ 0x5EC0)
    poison: Set[int] = {
        j for j in range(config.jobs)
        if host_rng.random() < config.poison_rate
    }
    attempts: Dict[int, int] = {}
    durable: List[int] = []

    def worker(wid):
        while True:
            job, ok = yield Recv(jobs_ch)
            if not ok:
                return
            yield Work(max(1, config.work_us))
            if job in poison and attempts.get(job, 0) <= 1:
                # First attempt on a poisoned job: wait on a condition
                # that never arrives.  GOLF condemns this goroutine and
                # recovery restarts the subsystem.
                yield Recv(trap_ch)
            durable.append(job)       # durable write, then ack
            yield Send(ack_ch, job)

    sub = mgr.register(
        "pipeline",
        channels=[jobs_ch, ack_ch],
        workers=[WorkerSpec(f"worker-{i}", worker, (i,))
                 for i in range(config.workers)],
    )

    injector = None
    if fault_plan is not None:
        from repro.chaos.injector import FaultInjector

        injector = FaultInjector(rt, fault_plan).install()

    rt.detect_partial_deadlock(interval_ms=config.daemon_interval_ms)

    deadline = config.deadline_ms * MILLISECOND

    def main():
        while rt.clock.now < deadline:
            yield Sleep(MILLISECOND)

    rt.spawn_main(main)

    acked: Set[int] = set()
    delivered_at: Dict[int, int] = {}
    redeliveries = 0
    next_job = 0
    redeliver_after = config.redeliver_after_ms * MILLISECOND
    acked_at_checkpoint = -1

    def submit(job: int) -> bool:
        ok, wakeups = jobs_ch.try_send(job)
        if ok:
            rt.sched.apply_wakeups(wakeups)
            attempts[job] = attempts.get(job, 0) + 1
            delivered_at[job] = rt.clock.now
        return ok

    while rt.clock.now < deadline and len(acked) < config.jobs:
        # Fresh deliveries, as channel capacity allows.
        while next_job < config.jobs and submit(next_job):
            next_job += 1
        # At-least-once redelivery: anything delivered but unacked for
        # too long (its worker wedged, died, or was rolled back) goes
        # out again.  The poison ledger sees attempts >= 2 and lets the
        # job through.
        for job, at in list(delivered_at.items()):
            if job in acked:
                continue
            if rt.clock.now - at >= redeliver_after:
                if submit(job):
                    redeliveries += 1
        rt.run(until_ns=min(deadline, rt.clock.now + 5 * MILLISECOND))
        # Drain acknowledgements.
        while True:
            done, job, ok, wakeups = ack_ch.try_recv()
            if not done or not ok:
                break
            rt.sched.apply_wakeups(wakeups)
            acked.add(job)
        # Quiescent point: every delivered job acked, channels drained.
        # Only then is a new checkpoint a consistent restart target.
        in_flight = [j for j in delivered_at if j not in acked]
        if (not in_flight and not jobs_ch.buffer and not ack_ch.buffer
                and len(acked) > acked_at_checkpoint):
            sub.take_checkpoint()
            acked_at_checkpoint = len(acked)

    finished_at = rt.clock.now
    rt.stop_partial_deadlock_detection()
    if injector is not None:
        injector.uninstall()
    rt.run(until_ns=rt.clock.now + 10 * MILLISECOND)
    rt.gc_until_quiescent()

    from repro.runtime.invariants import check_invariants

    result = CheckpointedResult(config)
    result.jobs_acked = len(acked)
    result.durable_records = len(set(durable))
    result.duplicate_records = len(durable) - len(set(durable))
    result.lost_jobs = sorted(acked - set(durable))
    result.poisoned_jobs = len(poison)
    result.redeliveries = redeliveries
    result.recoveries = mgr.total_recoveries()
    result.recovery_ns = mgr.recovery_times_ns()
    result.checkpoints_taken = sub.checkpoints_taken
    daemon = rt.detection_daemon
    if daemon is not None:
        result.daemon_checks = daemon.stats.checks
        result.daemon_skipped = daemon.stats.skipped
        result.leaks_reported = daemon.stats.leaks_reported
    result.finished_at_ns = finished_at
    result.invariant_problems = check_invariants(rt)
    return result
