"""A batch job pipeline: dispatcher, bounded workers, retries.

The second demo application: a job queue shaped like production batch
processors —

- a **dispatcher** feeding a job channel;
- a semaphore-bounded **worker pool** (at most ``max_inflight`` jobs in
  flight), each worker processing under a ``context`` deadline;
- a **retry path**: failed jobs are re-queued up to ``max_attempts``;
- an ``errgroup`` joining the pool, first error cancelling the run.

The injectable defect (``leak_retry_results``) mirrors a common outage
pattern: the retry helper publishes its verdict on a fresh unbuffered
channel, but the fast-path caller only listens when the *first* attempt
failed — retries scheduled after the caller moved on leak one goroutine
per occurrence.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.core.config import GolfConfig
from repro.runtime.api import Runtime
from repro.runtime.clock import MICROSECOND, MILLISECOND, SECOND
from repro.runtime.context import with_cancel
from repro.runtime.errgroup import group_go, group_wait, new_group
from repro.runtime.instructions import (
    Close,
    DEFAULT_CASE,
    Go,
    MakeChan,
    NewSema,
    RecvCase,
    Select,
    SemAcquire,
    SemRelease,
    Send,
    Sleep,
    Work,
)


class JobQueueConfig:
    """Pipeline and defect knobs."""

    def __init__(
        self,
        procs: int = 4,
        jobs: int = 120,
        workers: int = 6,
        max_inflight: int = 4,
        failure_rate: float = 0.2,
        max_attempts: int = 3,
        work_us: int = 30,
        leak_retry_results: bool = False,
        periodic_gc_ms: int = 2,
        seed: int = 0,
    ):
        self.procs = procs
        self.jobs = jobs
        self.workers = workers
        self.max_inflight = max_inflight
        self.failure_rate = failure_rate
        self.max_attempts = max_attempts
        self.work_us = work_us
        self.leak_retry_results = leak_retry_results
        self.periodic_gc_ms = periodic_gc_ms
        self.seed = seed


class JobQueueResult:
    """Outcome counters plus leak telemetry."""

    def __init__(self) -> None:
        self.succeeded = 0
        self.failed_permanently = 0
        self.attempts = 0
        self.err = None
        self.deadlock_reports = 0
        self.dedup_sites: List[str] = []
        self.lingering = 0

    @property
    def completed(self) -> int:
        return self.succeeded + self.failed_permanently

    def __repr__(self) -> str:
        return (
            f"<jobqueue ok={self.succeeded} failed={self.failed_permanently} "
            f"attempts={self.attempts} reports={self.deadlock_reports}>"
        )


def run_job_queue(config: Optional[JobQueueConfig] = None,
                  golf: bool = True,
                  proof_registry=None) -> JobQueueResult:
    """Process ``config.jobs`` jobs through the pipeline.

    ``proof_registry`` optionally installs static leak-freedom
    certificates (see :mod:`repro.staticcheck.proofs`) before the
    pipeline spawns — the proofs-on leg of the ``proofs`` equivalence pair.
    """
    config = config or JobQueueConfig()
    gc_config = GolfConfig() if golf else GolfConfig.baseline()
    rt = Runtime(procs=config.procs, seed=config.seed, config=gc_config)
    if proof_registry is not None:
        rt.install_proofs(proof_registry)
    rt.enable_periodic_gc(config.periodic_gc_ms * MILLISECOND)
    host_rng = random.Random(config.seed ^ 0x10B5)
    result = JobQueueResult()

    def attempt_fails() -> bool:
        return host_rng.random() < config.failure_rate

    def process_once(job_id: int, attempt: int):
        """One processing attempt (yield from); returns success bool."""
        yield Work(config.work_us)
        result.attempts += 1
        return not attempt_fails()

    def process_with_retry_leaky(job_id: int):
        """The defective retry helper: each retry publishes its verdict
        on a fresh unbuffered channel, but the caller stopped listening
        after scheduling it."""
        ok = yield from process_once(job_id, 0)
        if ok:
            return True
        for attempt in range(1, config.max_attempts):
            verdict = yield MakeChan(0, label="retry.verdict")

            def retry(ch=verdict, attempt=attempt):
                yield Sleep(10 * MICROSECOND)  # backoff
                yield Work(config.work_us)
                result.attempts += 1
                yield Send(ch, not attempt_fails())

            yield Go(retry, name="jobqueue-retry")
            # BUG: only polls once; a verdict arriving later is orphaned.
            index, value, _ = yield Select([RecvCase(verdict)],
                                           default=True)
            if index != DEFAULT_CASE and value:
                return True
        return False

    def process_with_retry_correct(job_id: int):
        ok = yield from process_once(job_id, 0)
        attempt = 1
        while not ok and attempt < config.max_attempts:
            yield Sleep(10 * MICROSECOND)  # backoff
            ok = yield from process_once(job_id, attempt)
            attempt += 1
        return ok

    def main():
        jobs_ch = yield MakeChan(config.max_inflight, label="jobs")
        inflight = yield NewSema(config.max_inflight)
        group = yield from new_group()
        ctx, cancel = yield from with_cancel()

        def dispatcher():
            for job_id in range(config.jobs):
                yield Send(jobs_ch, job_id)
            yield Close(jobs_ch)
            return None

        def worker(worker_id: int):
            while True:
                index, job_id, ok = yield Select(
                    [RecvCase(jobs_ch), RecvCase(ctx.done)])
                if index == 1 or not ok:
                    return None
                yield SemAcquire(inflight)
                try:
                    if config.leak_retry_results:
                        ok = yield from process_with_retry_leaky(job_id)
                    else:
                        ok = yield from process_with_retry_correct(job_id)
                    if ok:
                        result.succeeded += 1
                    else:
                        result.failed_permanently += 1
                finally:
                    yield SemRelease(inflight)

        yield from group_go(group, dispatcher, name="jq-dispatcher")
        for i in range(config.workers):
            yield from group_go(group, worker, i, name="jq-worker")
        result.err = yield from group_wait(group)
        yield from cancel()
        yield Sleep(5 * MILLISECOND)  # let straggler retries park

    rt.spawn_main(main)
    rt.run(until_ns=30 * SECOND, max_instructions=20_000_000)
    rt.gc_until_quiescent()

    result.deadlock_reports = rt.reports.total()
    result.dedup_sites = sorted({r.label for r in rt.reports if r.label})
    result.lingering = rt.blocked_goroutine_count()
    rt.shutdown()
    return result
