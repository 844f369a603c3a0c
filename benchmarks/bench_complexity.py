"""Detection complexity scaling (paper section 5.3's O(N^2 + N*S) bound).

Measures liveness checks and mark iterations for the restart strategy
vs the on-the-fly optimization across goroutine populations, in the
realistic (flat pool) and adversarial (daisy chain) shapes.
"""

from benchmarks.conftest import emit
from repro.experiments.complexity import (
    format_complexity_sweep,
    run_complexity_sweep,
)


def test_complexity_scaling():
    points = run_complexity_sweep(sizes=(8, 16, 32, 64))
    emit("complexity", format_complexity_sweep(points))

    by_key = {(p.shape, p.n, p.strategy): p for p in points}

    # Pools: linear checks, constant iterations for both strategies.
    for strategy in ("restart", "on-the-fly"):
        assert by_key[("pool", 64, strategy)].checks == 64
    assert by_key[("pool", 64, "restart")].iterations == 2

    # Chains: restart is quadratic (triangular number of checks, one
    # iteration per hop); on-the-fly stays linear with one pass.
    assert by_key[("chain", 64, "restart")].checks == 64 * 65 // 2
    assert by_key[("chain", 64, "restart")].iterations == 65
    assert by_key[("chain", 64, "on-the-fly")].checks == 64
    assert by_key[("chain", 64, "on-the-fly")].iterations == 1

    # The quadratic work shows up as detection pause.
    assert (by_key[("chain", 64, "restart")].detection_pause_ns
            > 2 * by_key[("chain", 64, "on-the-fly")].detection_pause_ns)
