"""RQ1(b): GOLF vs goleak over the enterprise test-suite corpus.

Paper: goleak 29 513 individual reports (357 deduplicated); GOLF 17 872
individual (60%), 180 deduplicated (50%).  Scale: 300 packages
over 60 shared library sites; the reproduction target is the two ratios.
"""

from benchmarks.conftest import emit
from repro.corpus.generator import CorpusConfig
from repro.experiments import format_rq1b, run_rq1b


def test_rq1b_golf_vs_goleak():
    config = CorpusConfig(n_packages=300, n_sites=60, seed=42)
    result = run_rq1b(config)
    emit("rq1b", format_rq1b(result))

    assert result.goleak_total > result.golf_total > 0
    assert 0.40 <= result.dedup_ratio <= 0.62, "paper: 50%"
    assert 0.48 <= result.individual_ratio <= 0.72, "paper: 60%"
    # GOLF's individual share exceeds its dedup share, as in the paper.
    assert result.individual_ratio > result.dedup_ratio
