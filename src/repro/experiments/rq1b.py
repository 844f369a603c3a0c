"""RQ1(b) and Figure 3: GOLF vs goleak on the synthetic enterprise corpus.

The paper's headline numbers: goleak reported 29 513 individual partial
deadlocks across 3 111 package test suites, deduplicated to 357; GOLF
detected 17 872 of the individual reports (60%), deduplicating to 180
(50%).  Figure 3 is the per-report GOLF/goleak detection ratio curve:
for each deduplicated GOLF report, the ratio of individual deadlocks
GOLF found to those goleak found, sorted descending.  The paper reads
two numbers off it: the area under it (~82%) and the fraction of
reports where GOLF found everything goleak found (55%).

Both are read off one :func:`~repro.corpus.runner.run_corpus` result.
"""

from __future__ import annotations

from repro.corpus.generator import CorpusConfig
from repro.corpus.runner import CorpusResult


def format_rq1b(corpus: CorpusResult, config: CorpusConfig) -> str:
    return "\n".join([
        f"Corpus: {config.n_packages} packages, "
        f"{config.n_sites} library sites "
        f"(paper: 3111 packages)",
        f"goleak individual reports: {corpus.goleak_total} "
        f"(paper: 29513)",
        f"GOLF   individual reports: {corpus.golf_total} "
        f"({corpus.individual_ratio:.0%}; paper: 17872 = 60%)",
        f"goleak deduplicated:       {corpus.goleak_dedup} (paper: 357)",
        f"GOLF   deduplicated:       {corpus.golf_dedup} "
        f"({corpus.dedup_ratio:.0%}; paper: 180 = 50%)",
    ])


def format_figure3(corpus: CorpusResult) -> str:
    lines = ["GOLF/goleak individual-report ratio per deduplicated report:"]
    curve = corpus.ratio_curve()
    if curve:
        # Render as a coarse ASCII curve: x = report index, y = ratio.
        rows, width = 10, 60
        grid = [[" "] * min(width, len(curve)) for _ in range(rows)]
        step = max(1, len(curve) // width)
        sampled = curve[::step][:width]
        for x, ratio in enumerate(sampled):
            y = min(rows - 1, int((1.0 - ratio) * (rows - 1) + 0.5))
            grid[y][x] = "*"
        for y, row in enumerate(grid):
            pct = 100 - round(100 * y / (rows - 1))
            lines.append(f"{pct:>4d}% |{''.join(row)}")
        lines.append("      +" + "-" * len(sampled))
        lines.append(f"       1 .. {len(curve)} (dedup report index)")
    lines.append(
        f"area under curve: {corpus.area_under_curve():.0%} (paper: 82%)   "
        f"all-found reports: {corpus.fully_found_fraction():.0%} "
        f"(paper: 55%)"
    )
    return "\n".join(lines)
