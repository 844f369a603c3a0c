"""Demo-application benchmarks: end-to-end GOLF on realistic systems.

Runs the KV store and job-queue applications (clean and defective,
baseline and GOLF) and prints an operational comparison — the adoption
story a production team would evaluate.
"""

from benchmarks.conftest import emit
from repro.apps import JobQueueConfig, KVConfig, run_job_queue, run_kv_workload


def test_kvstore_watch_leak():
    rows = []
    for leaky in (False, True):
        for golf in (False, True):
            config = KVConfig(leak_watch_cancel=leaky, seed=3)
            rows.append((leaky, golf, run_kv_workload(config, golf)))
    lines = [f"{'variant':24s} {'requests':>9s} {'lingering':>10s} "
             f"{'reports':>8s}"]
    by_key = {}
    for leaky, golf, result in rows:
        by_key[(leaky, golf)] = result
        variant = (("leaky" if leaky else "clean") + "/"
                   + ("golf" if golf else "baseline"))
        lines.append(
            f"{variant:24s} {result.requests:>9d} "
            f"{result.lingering_goroutines:>10d} "
            f"{result.deadlock_reports:>8d}"
        )
    emit("apps_kvstore", "\n".join(lines))

    assert by_key[(False, True)].deadlock_reports == 0
    assert by_key[(True, True)].dedup_sites == ["kv-watch-drainer"]
    assert (by_key[(True, False)].lingering_goroutines
            > 5 * by_key[(True, True)].lingering_goroutines)


def test_jobqueue_retry_leak():
    rows = []
    for leaky in (False, True):
        for golf in (False, True):
            config = JobQueueConfig(leak_retry_results=leaky, seed=2)
            rows.append((leaky, golf, run_job_queue(config, golf)))
    lines = [f"{'variant':24s} {'ok':>5s} {'failed':>7s} "
             f"{'lingering':>10s} {'reports':>8s}"]
    by_key = {}
    for leaky, golf, result in rows:
        by_key[(leaky, golf)] = result
        variant = (("leaky" if leaky else "clean") + "/"
                   + ("golf" if golf else "baseline"))
        lines.append(
            f"{variant:24s} {result.succeeded:>5d} "
            f"{result.failed_permanently:>7d} {result.lingering:>10d} "
            f"{result.deadlock_reports:>8d}"
        )
    emit("apps_jobqueue", "\n".join(lines))

    assert by_key[(False, True)].completed == 120
    assert by_key[(True, True)].dedup_sites == ["jobqueue-retry"]
    # GOLF reports exactly what the baseline leaves lingering.
    assert (by_key[(True, True)].deadlock_reports
            == by_key[(True, False)].lingering)
