#!/usr/bin/env python3
"""A realistic application: an etcd-style KV store with a watch-hub leak.

``repro.apps.kvstore`` is a full concurrent system built on the public
runtime API: an RWMutex-guarded store, a prefix watch hub, a ticker-driven
TTL sweeper, and context-deadlined request handlers.  Its injectable
defect — cancelled watchers whose "drain" goroutine parks forever — is
the etcd-shaped leak family GOLF was built for.

The demo runs the same workload four ways (clean/leaky x baseline/GOLF)
and prints the operational picture an SRE would see.

Run:  python examples/kvstore.py
"""

from repro.apps import KVConfig, run_kv_workload

if __name__ == "__main__":
    print(f"{'variant':22s} {'requests':>9s} {'watches':>8s} "
          f"{'lingering':>10s} {'GOLF reports':>13s}")
    print("-" * 68)
    for leaky in (False, True):
        for golf in (False, True):
            config = KVConfig(leak_watch_cancel=leaky, seed=3)
            result = run_kv_workload(config, golf=golf)
            variant = (("leaky" if leaky else "clean")
                       + " / " + ("GOLF" if golf else "baseline"))
            print(f"{variant:22s} {result.requests:>9d} "
                  f"{result.stats['watches_created']:>8d} "
                  f"{result.lingering_goroutines:>10d} "
                  f"{result.deadlock_reports:>13d}")
            if golf and leaky:
                assert result.dedup_sites == ["kv-watch-drainer"]
                print(f"{'':22s} -> triaged to a single source: "
                      f"{result.dedup_sites[0]}")
