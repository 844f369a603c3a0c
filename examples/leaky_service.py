#!/usr/bin/env python3
"""The production leak of the paper's RQ1(c) (Listing 7): SendEmail.

``send_email`` spawns a task goroutine that, via a deferred send,
reports completion over a ``done`` channel the function returns.
``handle_request`` discards that channel, so every email leaks one
goroutine.  This example runs a small request load under the baseline
collector and under GOLF and compares memory, goroutine counts, and the
deadlock reports.

Run:  python examples/leaky_service.py
"""

from repro import GolfConfig, Runtime
from repro.runtime.clock import MICROSECOND, MILLISECOND
from repro.runtime.instructions import (
    Alloc,
    Go,
    MakeChan,
    Recv,
    Send,
    Sleep,
    Work,
)
from repro.runtime.objects import Blob

REQUESTS = 200


def send_email(attachment_kb: int):
    """Returns a completion channel the caller is expected to read."""
    done = yield MakeChan(0, label="email.done")

    def task():
        attachment = yield Alloc(Blob(attachment_kb * 1024))
        try:
            yield Work(20)  # send the email
        finally:
            yield Send(done, ())  # deferred completion signal: leaks

    yield Go(task, name="safego-email-task")
    return done


def handle_request(read_done: bool):
    done = yield from send_email(attachment_kb=64)
    if read_done:
        yield Recv(done)  # the contract the buggy handler forgets


def run(golf: bool):
    config = GolfConfig() if golf else GolfConfig.baseline()
    rt = Runtime(procs=4, seed=2, config=config)
    rt.enable_periodic_gc(500 * MICROSECOND)

    # vet: expect send-may-drop
    def main():
        for i in range(REQUESTS):
            # Every third request hits the buggy handler.
            yield Go(handle_request, i % 3 != 0, name="request-handler")
            yield Sleep(30 * MICROSECOND)
        yield Sleep(2 * MILLISECOND)

    rt.spawn_main(main)
    rt.run()
    rt.gc_until_quiescent()
    return rt


if __name__ == "__main__":
    for golf in (False, True):
        rt = run(golf)
        stats = rt.memstats()
        label = "GOLF" if golf else "baseline"
        print(f"{label:9s} heap={stats.heap_alloc / 1e6:6.2f}MB "
              f"lingering-goroutines={stats.num_goroutine:4d} "
              f"reports={rt.reports.total():3d}")
        if golf:
            dedup = rt.reports.deduplicated()
            print(f"          deduplicated to {len(dedup)} source "
                  f"location(s), as an engineer would triage them:")
            for (go_site, block_site), reports in dedup.items():
                print(f"            {len(reports):3d}x spawned at {go_site}")
            assert len(dedup) == 1
            assert stats.num_goroutine == 0
