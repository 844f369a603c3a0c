"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper at a scaled
default, prints it (run pytest with ``-s`` to see it live), and archives
it under ``benchmarks/out/`` so EXPERIMENTS.md can be refreshed from the
latest run.
"""

from __future__ import annotations

import os

from repro import codec

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def emit(name: str, text: str) -> None:
    """Print a regenerated artifact and archive it."""
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    codec.write_text(os.path.join(OUT_DIR, f"{name}.txt"), text + "\n")


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)
