"""Table 3: production-service overhead of GOLF.

Paper (32 h of 3-minute emissions): P50 latency 51 vs 53.65 ms, P99 414
vs 464 ms, CPU 1.46% vs 1.51% — i.e. GOLF does not impinge on real-world
performance.  Scale: 2 virtual hours.
"""

from benchmarks.conftest import emit
from repro.experiments import format_table3, run_table3
from repro.service.production import ProductionConfig

HOURS = 2.0


def test_table3_production_overhead():
    config = ProductionConfig(hours=HOURS, seed=2)
    result = run_table3(config)
    emit("table3", format_table3(result))

    rows = result.rows()
    base_p50, _ = rows["baseline"]["p50_latency_ms"]
    golf_p50, _ = rows["golf"]["p50_latency_ms"]
    base_p99, _ = rows["baseline"]["p99_latency_ms"]
    golf_p99, _ = rows["golf"]["p99_latency_ms"]
    base_cpu, _ = rows["baseline"]["cpu_percent_p50"]
    golf_cpu, _ = rows["golf"]["cpu_percent_p50"]

    # Overhead within noise (paper: ~5% at P50, ~12% at P99).
    assert abs(golf_p50 - base_p50) / base_p50 < 0.15
    assert abs(golf_p99 - base_p99) / base_p99 < 0.25
    assert abs(golf_cpu - base_cpu) / max(base_cpu, 1e-9) < 0.25
    # And GOLF actually detected the production leaks along the way.
    assert result.golf.deadlock_reports > 0
    assert result.baseline.deadlock_reports == 0
