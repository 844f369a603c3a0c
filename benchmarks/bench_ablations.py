"""Ablations over GOLF's design choices (not in the paper's tables, but
direct measurements of trade-offs the paper discusses): detection
cadence (section 6.2) and recovery on/off.  The fixpoint strategy
(sections 5.2-5.3) is bench_complexity.py's chain rows.
"""

from benchmarks.conftest import emit
from repro.experiments.ablations import CadenceAblation, RecoveryAblation


def test_ablation_detection_cadence():
    result = CadenceAblation().run()
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
