"""Table 2: the controlled service, baseline vs GOLF at 0% / 10% leaks.

Paper highlights at 10% leak: GOLF gives ~9% higher client throughput,
~1.5-1.6x better tail latency, ~49x lower HeapAlloc, and more (shorter)
GC cycles; per-cycle pauses are ~2.5x higher under GOLF (B/G ~0.39).
With 0% leaks the two runtimes are equivalent outside GC pauses.

Scale: 15 virtual seconds of load per cell (the paper runs 30).
"""

from benchmarks.conftest import emit
from repro.experiments import format_table2, run_table2
from repro.service.controlled import ControlledConfig

DURATION_S = 15


_SPARK = " ▁▂▃▄▅▆▇█"


def _sparkline(values):
    peak = max(values) if values else 0
    if peak == 0:
        return "(flat at 0)"
    return "".join(
        _SPARK[min(len(_SPARK) - 1, v * (len(_SPARK) - 1) // peak)]
        for v in values
    )


def test_table2_service_metrics():
    config = ControlledConfig(duration_s=DURATION_S, warmup_s=3, seed=1)
    result = run_table2(config=config)
    emit("table2", format_table2(result))

    # Companion artifact: the per-second leak build-up under 10% leaks —
    # baseline accumulates, GOLF holds flat (the paper's memory story).
    series_lines = ["blocked goroutines per virtual second (10% leaks):"]
    for golf in (False, True):
        cell = result.cells[(0.10, golf)]
        tag = "GOLF    " if golf else "baseline"
        series_lines.append(
            f"  {tag} {_sparkline(cell.blocked_series)} "
            f"peak={max(cell.blocked_series or [0])}"
        )
    emit("table2_series", "\n".join(series_lines))

    # No leaks: equivalent service metrics...
    assert 0.95 <= result.ratio(0.0, "throughput_rps") <= 1.05
    assert 0.9 <= result.ratio(0.0, "p99_ms") <= 1.1
    # ...but GOLF pays more pause per cycle (paper B/G = 0.38).
    assert result.ratio(0.0, "pause_per_cycle_ns") < 0.95

    # 10% leaks: GOLF wins memory by a wide margin (paper: ~49x).
    assert result.ratio(0.10, "heap_alloc_mb") > 20
    assert result.ratio(0.10, "heap_objects") > 2
    assert result.ratio(0.10, "stack_inuse_mb") > 2
    # Tail latency and throughput favor GOLF under leaks.
    assert result.ratio(0.10, "p99_ms") > 1.0
    assert result.ratio(0.10, "throughput_rps") <= 1.0
    # Baseline GC fraction worsens under leaks (paper 30% vs 26%).
    assert result.ratio(0.10, "gc_cpu_fraction") >= 1.0
