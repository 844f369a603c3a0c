"""The long-running leak accumulation experiment (paper, Figure 1).

A production service whose request handlers leak goroutines at a steady
low rate.  The service is *redeployed every weekday morning* (which
resets the process and hides the leak), but not on weekends or holidays
— so the blocked-goroutine count spikes exactly when nobody is deploying,
which is the sawtooth the paper's Figure 1 shows.

Each deployment is a fresh :class:`Runtime`; the blocked-goroutine count
is sampled every virtual hour across the whole span.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.config import GolfConfig
from repro.runtime.api import Runtime
from repro.runtime.clock import HOUR, MILLISECOND, MINUTE
from repro.runtime.instructions import Go, MakeChan, Recv, Send, Sleep, Work

#: Hour of day at which a weekday redeploy resets the service (the
#: drop of Figure 1's sawtooth).
REDEPLOY_HOUR = 6
#: Each deployment's periodic-GC interval, in virtual minutes.
PERIODIC_GC_MIN = 10
#: Day indices (0 = Monday of week one) without a redeploy even though
#: they are weekdays: a two-day holiday in the second week, as the
#: paper's trace suggests.
HOLIDAYS = frozenset({10, 11})


class LongRunConfig:
    """Knobs for the Figure 1 simulation."""

    def __init__(
        self,
        days: int = 21,
        requests_per_hour: int = 120,
        leak_every: int = 6,
        procs: int = 4,
        seed: int = 3,
    ):
        self.days = days
        self.requests_per_hour = requests_per_hour
        #: One in ``leak_every`` requests leaks one goroutine.
        self.leak_every = leak_every
        self.procs = procs
        self.seed = seed

    def is_redeploy_day(self, day: int) -> bool:
        weekday = day % 7  # 0 = Monday
        return weekday < 5 and day not in HOLIDAYS


class LongRunResult:
    """Hourly blocked-goroutine series plus deployment markers."""

    def __init__(self) -> None:
        #: (hour_index, blocked_goroutines)
        self.series: List[Tuple[int, int]] = []
        #: hour indices at which a redeploy (reset) happened
        self.redeploys: List[int] = []
        self.total_requests = 0
        self.total_reports = 0

    def peak(self) -> int:
        return max((count for _, count in self.series), default=0)

    def weekend_peak(self) -> int:
        """Highest sample on Saturdays/Sundays/holidays."""
        return max(
            (count for hour, count in self.series
             if (hour // 24) % 7 >= 5),
            default=0,
        )

    def weekday_evening_mean(self) -> float:
        """Mean of the 17:00 samples on redeploy days — what an on-call
        engineer glancing at the dashboard after work would see."""
        values = [
            count for hour, count in self.series
            if (hour // 24) % 7 < 5 and hour % 24 == 17
        ]
        return sum(values) / len(values) if values else 0.0


def run_longrun(config: Optional[LongRunConfig] = None,
                golf: bool = False) -> LongRunResult:
    """Simulate ``config.days`` of service uptime with redeploys.

    ``golf=False`` reproduces Figure 1 (the motivation: an unmodified
    runtime accumulating leaked goroutines); ``golf=True`` shows the same
    service with GOLF reclaiming them.

    Each deployment collects every :data:`PERIODIC_GC_MIN` virtual
    minutes; a redeploy day (see :meth:`LongRunConfig.is_redeploy_day`)
    restarts the service at :data:`REDEPLOY_HOUR` o'clock, wiping the
    leaks accumulated since the previous deployment.
    """
    config = config or LongRunConfig()
    result = LongRunResult()
    interarrival = HOUR // max(1, config.requests_per_hour)

    rt: Optional[Runtime] = None
    deploy_seq = 0
    state = {"requests": 0}

    def new_deployment() -> Runtime:
        gc_config = GolfConfig() if golf else GolfConfig.baseline()
        fresh = Runtime(procs=config.procs,
                        seed=config.seed + deploy_seq,
                        config=gc_config)
        fresh.enable_periodic_gc(PERIODIC_GC_MIN * MINUTE)

        def handler(leaky: bool):
            done = yield MakeChan(0)

            def task():
                yield Work(20)
                yield Send(done, ())

            yield Go(task, name="longrun-task")
            yield Sleep(30 * MILLISECOND)
            if not leaky:
                yield Recv(done)

        def loader():
            n = 0
            while True:
                yield Sleep(interarrival)
                n += 1
                state["requests"] += 1
                yield Go(handler, n % config.leak_every == 0,
                         name="longrun-handler")

        def main():
            yield Go(loader, name="loader")
            while True:
                yield Sleep(HOUR)

        fresh.spawn_main(main)
        return fresh

    rt = new_deployment()
    for hour in range(config.days * 24):
        day, hour_of_day = divmod(hour, 24)
        if (hour_of_day == REDEPLOY_HOUR and hour > 0
                and config.is_redeploy_day(day)):
            result.total_reports += rt.reports.total()
            deploy_seq += 1
            rt = new_deployment()
            result.redeploys.append(hour)
        rt.run_for(HOUR, max_instructions=50_000_000)
        result.series.append((hour, rt.blocked_goroutine_count()))
    result.total_reports += rt.reports.total()
    result.total_requests = state["requests"]
    return result
