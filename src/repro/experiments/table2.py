"""Table 2: controlled service — baseline vs GOLF at 0% and 10% leaks.

Runs the closed-loop client/server workload of
:mod:`repro.service.controlled` under the four (leak rate, collector)
combinations and prints the paper's metric rows with Base/GOLF ratios.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Sequence, Tuple

from repro.service.controlled import (
    ControlledConfig,
    ControlledResult,
    run_controlled,
)

#: The paper's two leak rates: none, and one request in ten.
LEAK_RATES = (0.0, 0.10)

#: Metric rows, in the paper's order: (key, label, higher-is-better).
METRIC_ROWS = (
    ("throughput_rps", "Throughput (req./s)", True),
    ("p50_ms", "P50 latency (ms)", False),
    ("p90_ms", "P90 latency (ms)", False),
    ("p95_ms", "P95 latency (ms)", False),
    ("p99_ms", "P99 latency (ms)", False),
    ("p999_ms", "P99.9 latency (ms)", False),
    ("p99995_ms", "P99.995 latency (ms)", False),
    ("max_ms", "Maximum latency (ms)", False),
    ("stack_inuse_mb", "Stack spans (MB)", False),
    ("heap_alloc_mb", "Heap objects allocated (MB)", False),
    ("heap_inuse_mb", "Reachable heap objects (MB)", False),
    ("heap_objects", "No. of objects", False),
    ("gc_cpu_fraction", "GC fractional CPU utilization", False),
    ("pause_total_ns", "GC pause time (ns)", False),
    ("num_gc", "No. of GC cycles", False),
    ("pause_per_cycle_ns", "Pause time per cycle (ns)", False),
)


class Table2Result:
    """The four workload cells, keyed by (leak_rate, golf)."""

    def __init__(self) -> None:
        self.cells: Dict[Tuple[float, bool], ControlledResult] = {}

    def add(self, result: ControlledResult) -> None:
        self.cells[(result.leak_rate, result.golf)] = result

    def ratio(self, leak_rate: float, key: str) -> float:
        """Base/GOLF ratio for a metric at the given leak rate."""
        base = self.cells[(leak_rate, False)].row().get(key, 0.0)
        golf = self.cells[(leak_rate, True)].row().get(key, 0.0)
        return base / golf if golf else float("inf")

    def leak_rates(self) -> Sequence[float]:
        return sorted({rate for rate, _ in self.cells})


def run_table2(config: Optional[ControlledConfig] = None) -> Table2Result:
    """Run all four cells of Table 2."""
    result = Table2Result()
    for rate in LEAK_RATES:
        for golf in (False, True):
            cell_cfg = copy.copy(config or ControlledConfig())
            cell_cfg.leak_rate = rate
            result.add(run_controlled(cell_cfg, golf=golf))
    return result


def format_table2(result: Table2Result) -> str:
    lines = []
    rates = result.leak_rates()
    header = f"{'Metric':34s}"
    for rate in rates:
        header += f" | {'Base':>12s} {'GOLF':>12s} {'B/G':>7s}"
    title = f"{'':34s}"
    for rate in rates:
        title += f" | {'leaks in %d%% requests' % round(rate * 100):>33s}"
    lines.append(title)
    lines.append(header)
    lines.append("-" * len(header))
    for key, label, _higher_better in METRIC_ROWS:
        line = f"{label:34s}"
        for rate in rates:
            base = result.cells[(rate, False)].row().get(key, 0.0)
            golf = result.cells[(rate, True)].row().get(key, 0.0)
            ratio = result.ratio(rate, key)
            line += f" | {base:>12.4g} {golf:>12.4g} {ratio:>7.2f}"
        lines.append(line)
    return "\n".join(lines)
