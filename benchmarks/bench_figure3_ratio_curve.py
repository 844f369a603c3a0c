"""Figure 3: per-deduplicated-report GOLF/goleak detection ratio curve.

Paper: area under the curve ~82%; GOLF finds everything goleak finds in
55% of its deduplicated reports.
"""

from benchmarks.conftest import emit
from repro.corpus.generator import CorpusConfig
from repro.experiments import format_figure3, run_figure3


def test_figure3_detection_ratio_curve():
    config = CorpusConfig(n_packages=300, n_sites=60, seed=42)
    result = run_figure3(config)
    emit("figure3", format_figure3(result))

    assert result.curve == sorted(result.curve, reverse=True)
    assert 0.70 <= result.auc <= 1.0, "paper: 82%"
    assert 0.35 <= result.fully_found <= 0.85, "paper: 55%"
    # The curve must actually decay: partial-detection sites exist.
    assert result.curve[-1] < 1.0
