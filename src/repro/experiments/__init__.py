"""Experiment drivers: one module per table/figure of the paper.

Each module exposes a ``run_*`` function returning a structured result
and a ``format_*`` helper that prints the same rows/series the paper
reports; ``rq1b`` holds RQ1(b)'s and Figure 3's formatters, which read
one :func:`repro.corpus.runner.run_corpus` result.
``benchmarks/bench_*.py`` writes their output to the committed files;
see EXPERIMENTS.md for the paper-vs-measured record.
"""

from repro.experiments.table1 import Table1Result, format_table1, run_table1
from repro.experiments.table2 import Table2Result, format_table2, run_table2
from repro.experiments.table3 import Table3Result, format_table3, run_table3
from repro.experiments.figure1 import Figure1Result, format_figure1, run_figure1
from repro.experiments.figure4 import Figure4Result, format_figure4, run_figure4
from repro.experiments.rq1b import format_figure3, format_rq1b
from repro.experiments.rq1c import RQ1cResult, format_rq1c, run_rq1c

__all__ = [
    "run_table1", "format_table1", "Table1Result",
    "run_table2", "format_table2", "Table2Result",
    "run_table3", "format_table3", "Table3Result",
    "run_figure1", "format_figure1", "Figure1Result",
    "run_figure4", "format_figure4", "Figure4Result",
    "format_rq1b", "format_figure3",
    "run_rq1c", "format_rq1c", "RQ1cResult",
]
