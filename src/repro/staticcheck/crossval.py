"""Cross-validate `repro vet` against GOLF's dynamic ground truth.

The microbench registry is the paper's labeled corpus: every benchmark
body is known-leaky (GOLF reclaims its annotated sites), and 32 of
them carry a `fixed` variant that is known-clean.  Running the static
analyzer over both populations yields the static analog of Table 2:

- TP — leaky benchmark flagged (verdict ``leaky`` or ``suspect``);
- FN — leaky benchmark missed, enumerated by pattern name with the
  analyzer's verdict (``unknown`` = soundly gave up, ``clean`` =
  genuine miss);
- FP — fixed variant flagged, enumerated with the offending rules;
- TN — fixed variant not flagged.

The report is byte-deterministic: benchmarks iterate in sorted
registry order and the JSON encoder sorts keys.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro import codec
from repro.staticcheck.model import LEAKY, SUSPECT, FunctionReport
from repro.staticcheck.report import analyze_callable

_FLAGGED = (LEAKY, SUSPECT)


class BenchRow:
    __slots__ = ("name", "source", "population", "truth_leaky", "sites",
                 "flaky", "verdict", "rules", "outcome", "detail",
                 "behavior")

    def __init__(self, name: str, source: str, population: str,
                 truth_leaky: bool, sites: List[str], flaky: bool,
                 report: FunctionReport,
                 behavior: Optional[Dict[str, Any]] = None):
        self.name = name
        self.source = source
        self.population = population        # "leaky" | "fixed"
        self.truth_leaky = truth_leaky
        self.sites = list(sites)
        self.flaky = flaky
        self.verdict = report.verdict
        self.rules = report.rules_hit()
        #: Behavioral-engine summary (``None`` under the rules engine):
        #: ``{"proven": n, "potential": n, "unknown": n}``.  A channel
        #: with a definite counterexample trace counts as flagged even
        #: when no rule fired — the fused engine's recall can only grow,
        #: and the zero-POTENTIAL-on-fixed invariant protects precision.
        self.behavior = behavior
        flagged = report.verdict in _FLAGGED
        if behavior is not None and behavior["potential"]:
            flagged = True
        if truth_leaky:
            self.outcome = "TP" if flagged else "FN"
        else:
            self.outcome = "FP" if flagged else "TN"
        if self.outcome == "FN":
            self.detail = (
                "analysis soundly gave up (unknown verdict)"
                if report.verdict == "unknown"
                else "analysis found nothing")
        elif self.outcome == "FP":
            sources = []
            if self.rules:
                sources.append("rules: " + ", ".join(self.rules))
            if behavior is not None and behavior["potential"]:
                sources.append(
                    f"behavioral counterexamples: {behavior['potential']}")
            self.detail = ("flagged a fixed variant ("
                           + "; ".join(sources) + ")")
        else:
            self.detail = ""

    def to_dict(self) -> Dict[str, Any]:
        d = {
            "name": self.name,
            "source": self.source,
            "population": self.population,
            "truth_leaky": self.truth_leaky,
            "dynamic_sites": self.sites,
            "flaky": self.flaky,
            "static_verdict": self.verdict,
            "static_rules": self.rules,
            "outcome": self.outcome,
            "detail": self.detail,
        }
        if self.behavior is not None:
            d["behavior"] = dict(self.behavior)
        return d


class CrossvalResult:
    def __init__(self, rows: List[BenchRow], engine: str = "rules"):
        self.rows = rows
        self.engine = engine               # "rules" | "behavior"

    @property
    def proven_channels(self) -> int:
        """Channels certified leak-free across the corpus (behavioral
        engine only; zero under the rules engine)."""
        return sum(row.behavior["proven"] for row in self.rows
                   if row.behavior is not None)

    def _count(self, outcome: str) -> int:
        return sum(1 for row in self.rows if row.outcome == outcome)

    @property
    def tp(self) -> int:
        return self._count("TP")

    @property
    def fn(self) -> int:
        return self._count("FN")

    @property
    def fp(self) -> int:
        return self._count("FP")

    @property
    def tn(self) -> int:
        return self._count("TN")

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 1.0

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 1.0

    def false_negatives(self) -> List[BenchRow]:
        return [row for row in self.rows if row.outcome == "FN"]

    def false_positives(self) -> List[BenchRow]:
        return [row for row in self.rows if row.outcome == "FP"]

    def to_dict(self) -> Dict[str, Any]:
        summary = {
            "tp": self.tp, "fn": self.fn, "fp": self.fp, "tn": self.tn,
            "leaky_population": self.tp + self.fn,
            "fixed_population": self.fp + self.tn,
            "recall": round(self.recall, 4),
            "precision": round(self.precision, 4),
        }
        if self.engine != "rules":
            summary["engine"] = self.engine
            summary["proven_channels"] = self.proven_channels
        return {
            "schema": "repro-vet-crossval/1",
            "summary": summary,
            # No silent misses: every FP/FN is enumerated by name.
            "false_negatives": [
                {"name": row.name, "verdict": row.verdict,
                 "detail": row.detail}
                for row in self.false_negatives()
            ],
            "false_positives": [
                {"name": row.name, "rules": row.rules,
                 "detail": row.detail}
                for row in self.false_positives()
            ],
            "benchmarks": [row.to_dict() for row in self.rows],
        }

    def to_json(self) -> str:
        return codec.dumps(self.to_dict())

    def format_text(self) -> str:
        engine_note = ("" if self.engine == "rules"
                       else f" [engine: {self.engine}]")
        lines = [
            "static-vs-dynamic cross-validation "
            f"(ground truth: GOLF microbench registry){engine_note}",
            "",
            f"  {'population':<14s} {'n':>4s} {'flagged':>8s} "
            f"{'missed':>7s}",
            f"  {'leaky':<14s} {self.tp + self.fn:>4d} {self.tp:>8d} "
            f"{self.fn:>7d}",
            f"  {'fixed (clean)':<14s} {self.fp + self.tn:>4d} "
            f"{self.fp:>8d} {self.tn:>7d}",
            "",
            f"  recall    {self.recall:.4f}",
            f"  precision {self.precision:.4f}",
        ]
        if self.engine != "rules":
            lines.append(f"  proven-leak-free channels: "
                         f"{self.proven_channels}")
        if self.false_negatives():
            lines.append("")
            lines.append("  false negatives (leaky, not flagged):")
            for row in self.false_negatives():
                lines.append(f"    {row.name:<40s} verdict="
                             f"{row.verdict:<8s} {row.detail}")
        if self.false_positives():
            lines.append("")
            lines.append("  false positives (fixed, flagged):")
            for row in self.false_positives():
                lines.append(f"    {row.name:<40s} "
                             f"rules={','.join(row.rules)}")
        return "\n".join(lines) + "\n"


def run_crossval(include_fixed: bool = True,
                 truth: Optional[List[Dict[str, Any]]] = None,
                 engine: str = "rules") -> CrossvalResult:
    """Analyze the labeled corpus statically and join with dynamic truth.

    ``truth`` defaults to :func:`repro.microbench.registry.ground_truth`
    — one row per program in registry-sorted order, so the report is
    reproducible byte for byte.

    ``engine="behavior"`` runs the behavioral-type engine alongside the
    rules: a program is flagged when a rule fires *or* a channel gets a
    definite counterexample trace (``POTENTIAL``), and the summary
    carries the corpus-wide proven-channel count.  UNKNOWN channels fall
    back to the rules verdict, so recall never drops below the rules
    engine's.
    """
    if engine not in ("rules", "behavior"):
        raise ValueError(f"unknown crossval engine {engine!r}")
    if truth is None:
        from repro.microbench.registry import ground_truth
        truth = ground_truth()
    rows: List[BenchRow] = []
    for entry in truth:
        if not include_fixed and entry["population"] == "fixed":
            continue
        report = analyze_callable(entry["body"], name=entry["name"])
        behavior = None
        if engine == "behavior":
            from repro.staticcheck.behavior import (
                analyze_callable_behavior,
            )
            analysis = analyze_callable_behavior(
                entry["body"], name=entry["name"])
            behavior = {
                "proven": len(analysis.proven),
                "potential": len(analysis.potential),
                "unknown": len(analysis.unknown),
            }
        rows.append(BenchRow(
            entry["name"], entry["source"], entry["population"],
            entry["leaky"], entry["sites"], entry["flaky"], report,
            behavior=behavior))
    return CrossvalResult(rows, engine=engine)
