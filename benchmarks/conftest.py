"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper at its
committed scale, prints it (run pytest with ``-s`` to see it live), and
writes it over its committed file under ``benchmarks/out/``: a run that
leaves ``git status`` clean reproduced every committed number.
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
