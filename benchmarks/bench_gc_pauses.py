"""GC pause windows: atomic vs incremental on the controlled service.

The point of the incremental collector is latency, not throughput: the
one big stop-the-world pause of the atomic cycle is split into two
bounded windows (mark setup, mark termination) with marking and sweeping
interleaved into mutator execution between them.  This benchmark runs
the paper's controlled client/server workload once per ``gc_mode`` and
asserts the structural guarantee: the *longest single STW window* under
the incremental collector stays strictly below the *longest full-cycle
pause* of the atomic collector on the identical workload.
"""

from benchmarks.conftest import emit
from repro.core.config import GolfConfig
from repro.service.controlled import ControlledConfig, run_controlled


def _config():
    return ControlledConfig(duration_s=8, warmup_s=2, leak_rate=0.02,
                            seed=1)


def _row(r):
    return (f"  {r.gc_mode:<12}: num_gc={r.memstats['num_gc']:<4.0f} "
            f"pause_total={r.memstats['pause_total_ns']:<9.0f} "
            f"max_pause={r.max_pause_ns:<7d} "
            f"max_stw_window={r.max_pause_window_ns}")


def test_incremental_pause_windows_beat_atomic():
    atomic = run_controlled(_config(), gc_config=GolfConfig(gc_mode="atomic"))
    incremental = run_controlled(
        _config(), gc_config=GolfConfig(gc_mode="incremental"))
    emit("gc-pauses", "\n".join([
        "controlled service, per-collector pause profile (ns)",
        _row(atomic),
        _row(incremental),
        f"  max STW window shrink: "
        f"{incremental.max_pause_window_ns / atomic.max_pause_ns:.2f}x "
        f"of the atomic full-cycle pause",
    ]))

    # Both collectors must still do their detection job on the leaky
    # workload before any latency claim means anything.
    assert atomic.deadlocks_detected > 0
    assert incremental.deadlocks_detected > 0

    # The tentpole claim: no single incremental STW window reaches the
    # atomic collector's worst full-cycle pause.
    assert incremental.max_pause_window_ns < atomic.max_pause_ns

    # Sanity on the accounting itself: every cycle has two nonzero
    # windows, so the worst window is strictly inside the worst pause.
    assert 0 < atomic.max_pause_window_ns < atomic.max_pause_ns
    assert 0 < incremental.max_pause_window_ns < incremental.max_pause_ns
