"""Ablations over GOLF's design choices (not in the paper's tables, but
direct measurements of the trade-offs its sections 5.2-5.3 and 6.2
discuss): fixpoint strategy, detection cadence, recovery on/off.
"""

from benchmarks.conftest import emit
from repro.experiments.ablations import (
    CadenceAblation,
    FixpointAblation,
    RecoveryAblation,
)


def test_ablation_fixpoint_strategy():
    result = FixpointAblation().run((2, 4, 8, 16, 32))
    emit("ablation_fixpoint", result.format())

    for row in result.rows:
        # Restart: one iteration per chain hop (paper's O(N) scenario);
        # on-the-fly: always a single pass (the 5.3 optimization).
        assert row["restart_iterations"] == row["chain"] + 1
        assert row["otf_iterations"] == 1
        assert row["restart_deadlocks"] == row["otf_deadlocks"]
    # Quadratic vs linear liveness checks.
    last = result.rows[-1]
    assert last["restart_checks"] > 8 * last["otf_checks"]


def test_ablation_detection_cadence():
    result = CadenceAblation().run((1, 2, 5, 10))
    emit("ablation_cadence", result.format())

    every1 = result.rows[0]
    every10 = result.rows[-1]
    # No detections lost, meaningful pause savings (paper section 6.2).
    assert every1["detected"] == every10["detected"]
    assert every10["pause_total_us"] < every1["pause_total_us"]


def test_ablation_recovery():
    result = RecoveryAblation().run()
    emit("ablation_recovery", result.format())

    off, on = result.rows
    assert off["detected"] == on["detected"]
    assert on["heap_alloc_kb"] < off["heap_alloc_kb"] / 50
    assert on["goroutines"] == 0 and off["goroutines"] > 0
