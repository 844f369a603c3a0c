"""Figure 4: GC marking-phase slowdown, GOLF vs baseline.

Paper: over 105 programs (73 leaky + 32 fixed), 5 runs each on one core:
median slowdown 0.96x for correct programs and 0.71x for deadlocking ones
(GOLF is often *faster*, since it does not mark leaked subgraphs), with
rare slowdowns up to ~5x; absolute marking always below 10 ms.
"""

from benchmarks.conftest import emit
from repro.experiments import format_figure4, run_figure4


def test_figure4_marking_slowdown():
    result = run_figure4(repeats=5)
    emit("figure4", format_figure4(result))

    assert len(result.samples) == 105
    leaky = result.distribution(correct=False)
    correct = result.distribution(correct=True)
    # Leaky programs: GOLF's marking is unburdened (paper median 0.71x).
    assert leaky["median"] < 1.0
    assert leaky["min"] < 0.8
    # Correct programs: comparable (paper median 0.96x).
    assert 0.85 <= correct["median"] <= 1.15
    # Absolute durations stay tiny (paper: < 10 ms).
    assert result.max_mark_clock_ns(True) < 10_000_000
    assert result.max_mark_clock_ns(False) < 10_000_000
