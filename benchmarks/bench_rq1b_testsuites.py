"""RQ1(b) and Figure 3: GOLF vs goleak over the enterprise test-suite
corpus, from one corpus run.

Paper: goleak 29 513 individual reports (357 deduplicated); GOLF 17 872
individual (60%), 180 deduplicated (50%).  Figure 3, the
per-deduplicated-report GOLF/goleak detection ratio curve: area under
the curve ~82%; GOLF finds everything goleak finds in 55% of its
deduplicated reports.  Scale: 300 packages over 60 shared library
sites; the reproduction target is the ratios.
"""

from benchmarks.conftest import emit
from repro.corpus.generator import CorpusConfig
from repro.corpus.runner import run_corpus
from repro.experiments import format_figure3, format_rq1b


def test_rq1b_and_figure3_golf_vs_goleak():
    config = CorpusConfig(n_packages=300, n_sites=60, seed=42)
    corpus = run_corpus(config)
    emit("rq1b", format_rq1b(corpus, config))
    emit("figure3", format_figure3(corpus))

    assert corpus.goleak_total > corpus.golf_total > 0
    assert 0.40 <= corpus.dedup_ratio <= 0.62, "paper: 50%"
    assert 0.48 <= corpus.individual_ratio <= 0.72, "paper: 60%"
    # GOLF's individual share exceeds its dedup share, as in the paper.
    assert corpus.individual_ratio > corpus.dedup_ratio

    curve = corpus.ratio_curve()
    assert curve == sorted(curve, reverse=True)
    assert 0.70 <= corpus.area_under_curve() <= 1.0, "paper: 82%"
    assert 0.35 <= corpus.fully_found_fraction() <= 0.85, "paper: 55%"
    # The curve must actually decay: partial-detection sites exist.
    assert curve[-1] < 1.0
