"""A batch job pipeline: dispatcher, bounded workers, retries.

The second demo application: a job queue shaped like production batch
processors —

- a **dispatcher** feeding a job channel;
- a semaphore-bounded **worker pool** (at most ``MAX_INFLIGHT`` jobs in
  flight), each worker processing under a ``context`` deadline;
- a **retry path**: failed jobs are re-queued up to ``MAX_ATTEMPTS``;
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


#: The pipeline's fixed shape: processors, jobs, jobs in flight, worker
#: goroutines, the share of attempts that fail, attempts per job (first
#: try plus retries), simulated work per attempt and the periodic-GC
#: interval.
PROCS = 4
JOBS = 120
MAX_INFLIGHT = 4
WORKERS = 6
FAILURE_RATE = 0.2
MAX_ATTEMPTS = 3
WORK_US = 30
PERIODIC_GC_MS = 2


class JobQueueConfig:
    """The defect switch and the seed."""

    def __init__(self, leak_retry_results: bool = False, seed: int = 0):
        self.leak_retry_results = leak_retry_results
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
                  golf: bool = True) -> JobQueueResult:
    """Process :data:`JOBS` jobs through the pipeline."""
    config = config or JobQueueConfig()
    gc_config = GolfConfig() if golf else GolfConfig.baseline()
    rt = Runtime(procs=PROCS, seed=config.seed, config=gc_config)
    rt.enable_periodic_gc(PERIODIC_GC_MS * MILLISECOND)
    host_rng = random.Random(config.seed ^ 0x10B5)
    result = JobQueueResult()

    def attempt_fails() -> bool:
        return host_rng.random() < FAILURE_RATE

    def process_once(job_id: int, attempt: int):
        """One processing attempt (yield from); returns success bool."""
        yield Work(WORK_US)
        result.attempts += 1
        return not attempt_fails()

    def process_with_retry_leaky(job_id: int):
        """The defective retry helper: each retry publishes its verdict
        on a fresh unbuffered channel, but the caller stopped listening
        after scheduling it."""
        ok = yield from process_once(job_id, 0)
        if ok:
            return True
        for attempt in range(1, MAX_ATTEMPTS):
            verdict = yield MakeChan(0, label="retry.verdict")

            def retry(ch=verdict, attempt=attempt):
                yield Sleep(10 * MICROSECOND)  # backoff
                yield Work(WORK_US)
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
        while not ok and attempt < MAX_ATTEMPTS:
            yield Sleep(10 * MICROSECOND)  # backoff
            ok = yield from process_once(job_id, attempt)
            attempt += 1
        return ok

    def main():
        jobs_ch = yield MakeChan(MAX_INFLIGHT, label="jobs")
        inflight = yield NewSema(MAX_INFLIGHT)
        group = yield from new_group()
        ctx, cancel = yield from with_cancel()

        def dispatcher():
            for job_id in range(JOBS):
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
        for i in range(WORKERS):
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
