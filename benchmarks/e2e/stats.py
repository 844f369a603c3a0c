"""Sample statistics, bound comparison and canonical digests.

Quartiles follow ``statistics.quantiles(values, n=4)`` so the numbers
printed here are the ones the acceptance procedure recomputes.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Any, Dict, Sequence, Tuple

LOWER = "lower"
HIGHER = "higher"


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile; a single sample is its own quartiles."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def worsening(better: str, base: float, new: float) -> float:
    """Share of ``base`` by which ``new`` is worse (negative = better)."""
    if better not in (LOWER, HIGHER):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if base == 0:
        return 0.0 if new == base else float("inf")
    delta = (new - base) if better == LOWER else (base - new)
    return delta / abs(base)


def canonical_json(doc: Any) -> str:
    """Key-order-independent rendering (sorted keys, fixed separators)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc: Any) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
