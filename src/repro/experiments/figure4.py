"""Figure 4: GC marking-phase slowdown of GOLF vs the baseline.

For each of the 105 programs (73 leaky microbenchmarks + 32 fixed
variants) the average marking-phase duration is measured under the
baseline collector and under GOLF across ``repeats`` runs on one virtual
core; the per-program slowdown distributions are summarized separately
for correct and deadlocking programs, as the paper's box plot is.

The paper's counterintuitive headline — GOLF is often *faster* than the
baseline, especially on leaky programs — falls out naturally: GOLF does
not mark memory reachable only from deadlocked goroutines (and after
recovery that memory is gone), so its marking phase is unburdened.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import GolfConfig
from repro.microbench.harness import run_microbenchmark
from repro.microbench.registry import (
    Microbenchmark,
    all_benchmarks,
    correct_benchmarks,
)
from repro.service.stats import percentile


class SlowdownSample:
    """One program's marking comparison."""

    __slots__ = ("name", "correct", "baseline_ns", "golf_ns")

    def __init__(self, name: str, correct: bool,
                 baseline_ns: float, golf_ns: float):
        self.name = name
        self.correct = correct
        self.baseline_ns = baseline_ns
        self.golf_ns = golf_ns

    @property
    def slowdown(self) -> float:
        """GOLF marking time over baseline marking time (<1 = faster)."""
        return self.golf_ns / self.baseline_ns if self.baseline_ns else 1.0


class Figure4Result:
    """Slowdown distributions for correct and deadlocking programs."""

    def __init__(self) -> None:
        self.samples: List[SlowdownSample] = []

    def add(self, sample: SlowdownSample) -> None:
        self.samples.append(sample)

    def population(self, correct: bool) -> List[SlowdownSample]:
        return [s for s in self.samples if s.correct == correct]

    def distribution(self, correct: bool) -> Dict[str, float]:
        subset = sorted(s.slowdown for s in self.population(correct))
        if not subset:
            return {}
        return {
            "min": subset[0],
            "p25": percentile(subset, 0.25),
            "median": percentile(subset, 0.50),
            "p75": percentile(subset, 0.75),
            "max": subset[-1],
        }

    def max_mark_clock_ns(self, correct: bool) -> float:
        subset = self.population(correct)
        return max((s.golf_ns for s in subset), default=0.0)


#: Seed of the first repeat; repeat ``i`` runs at ``BASE_SEED + 31 i``.
BASE_SEED = 100


def _mean_mark_clock(bench: Microbenchmark, golf: bool, repeats: int,
                     use_fixed: bool) -> float:
    config = GolfConfig() if golf else GolfConfig.baseline()
    totals = []
    for i in range(repeats):
        outcome = run_microbenchmark(
            bench, procs=1, seed=BASE_SEED + i * 31, config=config,
            use_fixed=use_fixed,
        )
        if outcome.mark_clock_ns > 0:
            totals.append(outcome.mark_clock_ns)
    return sum(totals) / len(totals) if totals else 0.0


def run_figure4(repeats: int = 5) -> Figure4Result:
    """Measure marking slowdowns over the 105-program population."""
    result = Figure4Result()
    jobs = ([(b, False) for b in all_benchmarks()]
            + [(b, True) for b in correct_benchmarks()])
    for bench, use_fixed in jobs:
        baseline_ns = _mean_mark_clock(bench, False, repeats, use_fixed)
        golf_ns = _mean_mark_clock(bench, True, repeats, use_fixed)
        name = bench.name + ("(fixed)" if use_fixed else "")
        result.add(SlowdownSample(name, use_fixed, baseline_ns, golf_ns))
    return result


def format_figure4(result: Figure4Result) -> str:
    lines = ["Marking-phase slowdown (GOLF / baseline), by population:"]
    for correct, label in ((True, "correct programs"),
                           (False, "deadlocking programs")):
        dist = result.distribution(correct)
        if not dist:
            continue
        lines.append(
            f"  {label:22s} min={dist['min']:.2f}x p25={dist['p25']:.2f}x "
            f"median={dist['median']:.2f}x p75={dist['p75']:.2f}x "
            f"max={dist['max']:.2f}x"
        )
        lines.append(
            f"  {'':22s} worst GOLF marking clock: "
            f"{result.max_mark_clock_ns(correct) / 1000:.0f}us"
        )
    lines.append("(paper: medians 0.96x correct / 0.71x deadlocking; "
                 "worst 4.8x / 5.87x; all marking < 10ms)")
    return "\n".join(lines)
