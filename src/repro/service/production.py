"""The production service experiments (paper, Table 3 and RQ1(c)).

A long-running service under light request load with three low-rate leak
sites shaped like Listing 7 (``SendEmail`` returns a completion channel
the handler never reads).  The service emits latency and CPU-utilization
metrics every three minutes, exactly like the paper's deployment; Table 3
averages those samples, RQ1(c) counts the partial deadlock reports and
narrows them to source locations.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.core.config import GolfConfig
from repro.runtime.api import Runtime
from repro.runtime.clock import HOUR, MILLISECOND, MINUTE, SECOND
from repro.runtime.instructions import (
    Go,
    MakeChan,
    Now,
    Recv,
    Send,
    Sleep,
    Work,
)
from repro.service.stats import mean_std, percentile


class ProductionConfig:
    """Workload knobs for the production-style service."""

    def __init__(
        self,
        procs: int = 8,
        hours: float = 8.0,
        connections: int = 4,
        downstream_ms: int = 45,
        downstream_jitter_ms: int = 25,
        think_time_ms: int = 400,
        handler_work_ms: int = 10,
        leak_every: int = 3000,
        metric_interval_min: int = 3,
        periodic_gc_s: int = 30,
        seed: int = 2,
    ):
        self.procs = procs
        self.hours = hours
        self.connections = connections
        self.downstream_ms = downstream_ms
        self.downstream_jitter_ms = downstream_jitter_ms
        self.think_time_ms = think_time_ms
        self.handler_work_ms = handler_work_ms
        #: One in ``leak_every`` requests per endpoint drops its done
        #: channel (the paper saw 252 leaks per 24 h across 3 sites).
        self.leak_every = leak_every
        self.metric_interval_min = metric_interval_min
        self.periodic_gc_s = periodic_gc_s
        self.seed = seed


class MetricSample:
    """One 3-minute emission: latency percentiles and CPU utilization."""

    __slots__ = ("t_ns", "p50_ms", "p99_ms", "cpu_percent", "blocked")

    def __init__(self, t_ns: int, p50_ms: float, p99_ms: float,
                 cpu_percent: float, blocked: int):
        self.t_ns = t_ns
        self.p50_ms = p50_ms
        self.p99_ms = p99_ms
        self.cpu_percent = cpu_percent
        self.blocked = blocked


class ProductionResult:
    """Aggregated Table 3 rows plus the RQ1(c) report tally."""

    def __init__(self, golf: bool):
        self.golf = golf
        self.samples: List[MetricSample] = []
        self.total_requests = 0
        self.deadlock_reports = 0
        self.dedup_sites: List[str] = []

    def summary(self) -> Dict[str, Tuple[float, float]]:
        """Mean and standard deviation per metric (the paper's Table 3)."""
        return {
            "p50_latency_ms": mean_std([s.p50_ms for s in self.samples]),
            "p99_latency_ms": mean_std([s.p99_ms for s in self.samples]),
            "cpu_percent_p50": mean_std(
                [s.cpu_percent for s in self.samples]),
        }

    def __repr__(self) -> str:
        mode = "golf" if self.golf else "base"
        summary = self.summary()
        return (
            f"<production {mode} reqs={self.total_requests} "
            f"p50={summary['p50_latency_ms'][0]:.1f}ms "
            f"reports={self.deadlock_reports}>"
        )


#: The three defective endpoints of RQ1(c); each wraps Listing 7.
ENDPOINTS = ("send_email", "notify_partner", "audit_event")


def run_production(config: Optional[ProductionConfig] = None,
                   golf: bool = True,
                   telemetry=None) -> ProductionResult:
    """Run the production-style service and collect its metric emissions.

    An optional :class:`~repro.telemetry.TelemetryHub` is attached to
    the runtime before the workload starts; request latency reaches the
    caller through the result's per-interval samples, which the hub
    does not duplicate.
    """
    config = config or ProductionConfig()
    gc_config = GolfConfig() if golf else GolfConfig.baseline()
    rt = Runtime(procs=config.procs, seed=config.seed, config=gc_config)
    if telemetry is not None:
        telemetry.attach(rt)
    rt.enable_periodic_gc(config.periodic_gc_s * SECOND)

    host_rng = random.Random(config.seed ^ 0x9E4D)
    latency_window: List[int] = []
    counters = {name: 0 for name in ENDPOINTS}
    state = {"requests": 0}
    deadline = int(config.hours * HOUR)

    def downstream_ns() -> int:
        jitter = host_rng.randint(-config.downstream_jitter_ms,
                                  config.downstream_jitter_ms)
        return (config.downstream_ms + jitter) * MILLISECOND

    def pick_endpoint() -> Tuple[str, bool]:
        name = ENDPOINTS[state["requests"] % len(ENDPOINTS)]
        counters[name] += 1
        return name, counters[name] % config.leak_every == 0

    def handler(reply_ch, endpoint: str, leaky: bool, delay: int):
        done = yield MakeChan(0, label=f"{endpoint}.done")

        def async_task():
            yield Work(50)          # the email/notification work
            yield Send(done, ())    # deferred completion signal

        yield Go(async_task, name=f"prod/{endpoint}")
        yield Work(config.handler_work_ms * 1000)  # request processing
        yield Sleep(delay)          # the downstream RPC
        if not leaky:
            yield Recv(done)        # the contract HandleRequest forgets
        yield Send(reply_ch, "ok")

    def client_conn():
        while True:
            t0 = yield Now()
            if t0 >= deadline:
                return
            endpoint, leaky = pick_endpoint()
            state["requests"] += 1
            reply = yield MakeChan(1)
            yield Go(handler, reply, endpoint, leaky, downstream_ns(),
                     name="prod-handler")
            yield Recv(reply)
            t1 = yield Now()
            latency_window.append(t1 - t0)
            # Stacks and block sites embed each yield's file:line, so
            # the yields below keep the lines they have always had.
            yield Sleep(config.think_time_ms * MILLISECOND)

    def main():
        for _ in range(config.connections):
            yield Go(client_conn, name="prod-conn")
        yield Sleep(deadline + 10 * MILLISECOND)

    rt.spawn_main(main)

    result = ProductionResult(golf)
    interval = config.metric_interval_min * MINUTE
    emissions = max(1, deadline // interval)
    prev_cpu = 0
    for _ in range(emissions):
        status = rt.run_for(interval, max_instructions=80_000_000)
        window = sorted(latency_window)
        latency_window.clear()
        cpu_ns = rt.sched.cpu_busy_ns + rt.collector.stats.gc_cpu_ns()
        cpu_delta = cpu_ns - prev_cpu
        prev_cpu = cpu_ns
        result.samples.append(MetricSample(
            t_ns=rt.clock.now,
            p50_ms=percentile(window, 0.50) / 1e6,
            p99_ms=percentile(window, 0.99) / 1e6,
            cpu_percent=100.0 * cpu_delta / (interval * config.procs),
            blocked=rt.blocked_goroutine_count(),
        ))
        if status != "timeout":
            break
    rt.run(until_ns=deadline + SECOND, max_instructions=80_000_000)
    rt.gc_until_quiescent()

    result.total_requests = state["requests"]
    result.deadlock_reports = rt.reports.total()
    result.dedup_sites = sorted(
        {r.label for r in rt.reports if r.label}
    )
    return result
