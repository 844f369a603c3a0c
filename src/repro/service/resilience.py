"""A resilient variant of the production service (chaos experiment).

The plain production service (:mod:`repro.service.production`) calls its
downstream dependency with no protection: when chaos makes the
dependency fail or crawl, handlers pile up.  This module adds the three
standard resilience patterns, implemented the way disciplined Go code
writes them — and therefore *leak-free by construction*:

- **deadline**: every downstream call races a ``time.Timer`` in a
  ``select``; the result channel has capacity 1, so the worker's late
  send always completes and an abandoned call never strands a goroutine;
- **retry with exponential backoff + jitter** (seeded, reproducible);
- **circuit breaker**: consecutive failures open the breaker, callers
  fail fast during the cooldown, a half-open probe closes it again.

The point of the experiment is the *combination* with GOLF: resilience
absorbs downstream chaos, but the service still carries the Listing-7
defect (a ``done`` channel the handler forgets to read on a small
fraction of requests).  The resilient machinery keeps latency bounded
while GOLF detects and reclaims the residual leaks — neither subsumes
the other.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.chaos.plan import FaultPlan
from repro.chaos.scenarios import get_scenario
from repro.core.config import GolfConfig
from repro.runtime.api import Runtime
from repro.runtime.clock import HOUR, MILLISECOND, SECOND
from repro.runtime.instructions import (
    Go,
    MakeChan,
    Now,
    Recv,
    RecvCase,
    Select,
    Send,
    Sleep,
    Work,
)
from repro.runtime.objects import WORD_SIZE, HeapObject
from repro.runtime.timers import new_timer
from repro.service.production import ENDPOINTS, ProductionConfig


class BreakerState:
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker(HeapObject):
    """A consecutive-failure circuit breaker (gobreaker-style).

    CLOSED counts consecutive failures; at ``failure_threshold`` it
    opens.  OPEN rejects every call until ``cooldown_ns`` elapses, then
    the next caller becomes the HALF_OPEN probe.  A successful probe
    closes the breaker; a failed one re-opens it and restarts the
    cooldown.
    """

    __slots__ = ("state", "failure_threshold", "cooldown_ns",
                 "consecutive_failures", "opened_at",
                 "times_opened", "rejected_calls", "probes")
    kind = "circuit-breaker"

    def __init__(self, failure_threshold: int = 5,
                 cooldown_ns: int = 2 * SECOND):
        HeapObject.__init__(self, 6 * WORD_SIZE)
        self.state = BreakerState.CLOSED
        self.failure_threshold = failure_threshold
        self.cooldown_ns = cooldown_ns
        self.consecutive_failures = 0
        self.opened_at = 0
        self.times_opened = 0
        self.rejected_calls = 0
        self.probes = 0

    def allow(self, now_ns: int) -> bool:
        """May a call proceed at virtual time ``now_ns``?"""
        if self.state == BreakerState.CLOSED:
            return True
        if self.state == BreakerState.OPEN:
            if now_ns - self.opened_at >= self.cooldown_ns:
                self.state = BreakerState.HALF_OPEN
                self.probes += 1
                return True
            self.rejected_calls += 1
            return False
        # HALF_OPEN: one probe is already in flight.
        self.rejected_calls += 1
        return False

    def record_success(self) -> None:
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0

    def record_failure(self, now_ns: int) -> None:
        self.consecutive_failures += 1
        if (self.state == BreakerState.HALF_OPEN
                or self.consecutive_failures >= self.failure_threshold):
            if self.state != BreakerState.OPEN:
                self.times_opened += 1
            self.state = BreakerState.OPEN
            self.opened_at = now_ns

    def __repr__(self) -> str:
        return (
            f"<breaker {self.state} failures={self.consecutive_failures} "
            f"opened={self.times_opened}x rejected={self.rejected_calls}>"
        )


class RetryPolicy:
    """Exponential backoff with full jitter, from a seeded RNG."""

    __slots__ = ("max_attempts", "base_ns", "rng")

    def __init__(self, max_attempts: int = 3,
                 base_ns: int = 50 * MILLISECOND, seed: int = 0):
        if max_attempts < 1:
            raise ValueError("need at least one attempt")
        self.max_attempts = max_attempts
        self.base_ns = base_ns
        self.rng = random.Random(seed ^ 0xB0FF)

    def backoff_ns(self, attempt: int) -> int:
        """Backoff before retry number ``attempt`` (0-based): full
        jitter over the doubling ceiling, AWS-style."""
        ceiling = self.base_ns * (2.0 ** attempt)
        return max(1, int(self.rng.uniform(0, ceiling)))


#: The resilience stack's settings.
TIMEOUT_MS = 120          # deadline of one downstream attempt
RETRY_ATTEMPTS = 3        # attempts per call, the first included
BACKOFF_BASE_MS = 40      # backoff ceiling before the first retry
BREAKER_THRESHOLD = 5     # consecutive failures that open the breaker
BREAKER_COOLDOWN_S = 2    # open breaker's wait before a half-open probe
CHAOS_SEED = 11           # seed of the downstream fault plan


class ResilienceConfig(ProductionConfig):
    """Production workload plus the downstream chaos scenario."""

    def __init__(self, *, chaos_scenario: str = "downstream",
                 **production_kwargs):
        production_kwargs.setdefault("hours", 0.5)
        production_kwargs.setdefault("leak_every", 150)
        super().__init__(**production_kwargs)
        self.chaos_scenario = chaos_scenario


class ResilienceResult:
    """What the resilient service observed over the run."""

    def __init__(self) -> None:
        self.total_requests = 0
        self.outcomes: Dict[str, int] = {
            "ok": 0, "failed": 0, "rejected": 0}
        self.attempts_total = 0
        self.retries = 0
        self.timeouts = 0
        self.breaker_opens = 0
        self.breaker_rejected = 0
        self.breaker_probes = 0
        self.deadlock_reports = 0
        self.reclaimed = 0
        self.dedup_sites: List[str] = []
        self.blocked_at_end = 0

    @property
    def resilience_engaged(self) -> bool:
        """Did the protective machinery actually do something?"""
        return self.retries > 0 or self.breaker_opens > 0

    def __repr__(self) -> str:
        return (
            f"<resilient reqs={self.total_requests} ok={self.outcomes['ok']} "
            f"failed={self.outcomes['failed']} "
            f"rejected={self.outcomes['rejected']} retries={self.retries} "
            f"opens={self.breaker_opens} reports={self.deadlock_reports} "
            f"reclaimed={self.reclaimed}>"
        )


def call_with_resilience(plan: FaultPlan, breaker: CircuitBreaker,
                         retry: RetryPolicy, timeout_ns: int,
                         base_delay_ns: int, stats: Dict[str, int]):
    """One protected downstream call; ``yield from`` it inside a handler.

    Returns ``"ok"``, ``"failed"`` (all attempts exhausted) or
    ``"rejected"`` (breaker open).  Structured so no path leaks: the
    result channel is buffered, the timer is stopped when the result
    wins, and the timer goroutine's buffered send completes even when
    nobody is left to read it.
    """
    for attempt in range(retry.max_attempts):
        now = yield Now()
        if not breaker.allow(now):
            stats["rejected"] += 1
            return "rejected"
        stats["attempts"] += 1
        if attempt > 0:
            stats["retries"] += 1
        outcome, extra_ns = plan.downstream_outcome()
        delay_ns = base_delay_ns + extra_ns
        result_ch = yield MakeChan(1, label="resilient.result")

        def downstream_worker(ch, verdict, delay):
            yield Sleep(delay)
            yield Send(ch, verdict)

        yield Go(downstream_worker, result_ch,
                 "err" if outcome == "fail" else "ok", delay_ns,
                 name="downstream-call")
        timer = yield from new_timer(timeout_ns)
        idx, value, _ = yield Select([RecvCase(result_ch),
                                      RecvCase(timer.ch)])
        if idx == 0:
            timer.stop()
            if value == "ok":
                breaker.record_success()
                return "ok"
        else:
            stats["timeouts"] += 1
        now = yield Now()
        breaker.record_failure(now)
        if attempt + 1 < retry.max_attempts:
            yield Sleep(retry.backoff_ns(attempt))
    return "failed"


def run_resilient_production(
    config: Optional[ResilienceConfig] = None,
) -> ResilienceResult:
    """Run the resilient service under downstream chaos.

    Same request topology as :func:`repro.service.production.run_production`
    — per-connection client loops, per-request handler goroutines, the
    Listing-7 ``done`` channel defect at the configured ``leak_every``
    rate — but every downstream call goes through the breaker + retry +
    deadline stack, with outcomes drawn from a chaos
    :class:`~repro.chaos.plan.FaultPlan`, under GOLF with recovery.
    """
    config = config or ResilienceConfig()
    rt = Runtime(procs=config.procs, seed=config.seed, config=GolfConfig())
    rt.enable_periodic_gc(config.periodic_gc_s * SECOND)
    plan = FaultPlan(CHAOS_SEED, get_scenario(config.chaos_scenario))

    breaker = CircuitBreaker(BREAKER_THRESHOLD,
                             BREAKER_COOLDOWN_S * SECOND)
    rt.alloc(breaker)
    rt.set_global("breaker", breaker)
    retry = RetryPolicy(RETRY_ATTEMPTS,
                        BACKOFF_BASE_MS * MILLISECOND,
                        seed=config.seed)

    stats = {"attempts": 0, "retries": 0, "timeouts": 0, "rejected": 0}
    counters = {name: 0 for name in ENDPOINTS}
    state = {"requests": 0, "ok": 0, "failed": 0, "rejected": 0}
    deadline = int(config.hours * HOUR)
    timeout_ns = TIMEOUT_MS * MILLISECOND
    base_delay_ns = config.downstream_ms * MILLISECOND

    def pick_endpoint() -> Tuple[str, bool]:
        name = ENDPOINTS[state["requests"] % len(ENDPOINTS)]
        counters[name] += 1
        return name, counters[name] % config.leak_every == 0

    def handler(reply_ch, endpoint: str, leaky: bool):
        done = yield MakeChan(0, label=f"{endpoint}.done")

        def async_task():
            yield Work(50)          # the email/notification work
            yield Send(done, ())    # deferred completion signal

        yield Go(async_task, name=f"resilient/{endpoint}")
        yield Work(config.handler_work_ms * 1000)
        verdict = yield from call_with_resilience(
            plan, breaker, retry, timeout_ns, base_delay_ns, stats)
        if not leaky:
            yield Recv(done)        # the contract the leaky path forgets
        yield Send(reply_ch, verdict)

    def client_conn():
        while True:
            t0 = yield Now()
            if t0 >= deadline:
                return
            endpoint, leaky = pick_endpoint()
            state["requests"] += 1
            reply = yield MakeChan(1)
            yield Go(handler, reply, endpoint, leaky,
                     name="resilient-handler")
            verdict, _ = yield Recv(reply)
            state[verdict] += 1
            yield Sleep(config.think_time_ms * MILLISECOND)

    def main():
        for _ in range(config.connections):
            yield Go(client_conn, name="resilient-conn")
        # Drain window: handlers started just before the deadline can
        # need several timeout+backoff rounds to finish; give them time
        # so the only goroutines still blocked at the end are the
        # genuine Listing-7 leaks (which GOLF then reclaims).
        yield Sleep(deadline + 2 * SECOND)

    rt.spawn_main(main)
    rt.run(until_ns=deadline + 3 * SECOND, max_instructions=80_000_000)
    rt.gc_until_quiescent()

    result = ResilienceResult()
    result.total_requests = state["requests"]
    result.outcomes = {"ok": state["ok"], "failed": state["failed"],
                       "rejected": state["rejected"]}
    result.attempts_total = stats["attempts"]
    result.retries = stats["retries"]
    result.timeouts = stats["timeouts"]
    result.breaker_opens = breaker.times_opened
    result.breaker_rejected = breaker.rejected_calls
    result.breaker_probes = breaker.probes
    result.deadlock_reports = rt.reports.total()
    result.reclaimed = rt.collector.stats.total_goroutines_reclaimed
    result.dedup_sites = sorted({r.label for r in rt.reports if r.label})
    result.blocked_at_end = rt.blocked_goroutine_count()
    rt.shutdown()
    return result
