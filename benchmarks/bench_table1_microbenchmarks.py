"""Table 1: detection rates on the 73-benchmark corpus.

Paper: GOLF detects 94.75% of partial deadlocks aggregated over 100 runs
at 1/2/4/10 virtual cores; every one of the 121 leaky ``go`` sites is
detected in at least one run; the etcd/7443 family is nearly invisible
below 10 cores and grpc/3017 requires at least 2.

Scale: the paper's 100 runs per configuration.
"""

from benchmarks.conftest import emit
from repro.experiments import format_table1, run_table1

RUNS = 100


def test_table1_detection_rates():
    result = run_table1(runs=RUNS)
    emit("table1", format_table1(result))

    # Shape assertions against the paper.
    assert result.aggregated() >= 0.88, "paper: 94.75% aggregate"
    assert result.unexpected == 0, "a detection at an undeclared site"
    assert result.counts["grpc/3017:71"][1] == 0, "needs parallelism"
    assert result.counts["grpc/3017:71"][2] >= 0.9 * RUNS
    assert result.counts["etcd/7443:96"][4] <= 0.1 * RUNS
    assert result.site_rate("hugo/3261:54") >= 0.85
    # All-perfect rows collapse, as in the paper's "Remaining" row.
    assert len(result.perfect_sites()) >= 90
