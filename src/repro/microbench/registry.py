"""The microbenchmark registry: 73 benchmarks, 121 leaky ``go`` sites.

Composition mirrors the paper's corpus (section 6.1):

- 13 named flaky benchmarks from GoBench/"goker" (27 leaky sites) with
  the flakiness profiles of Table 1 — see :mod:`repro.microbench.flaky`;
- 60 generated deterministic benchmarks (94 leaky sites) instantiating
  the defect families of :mod:`repro.microbench.patterns` under
  goker-style names.  Six of them (8 sites) stand in for the
  "cgo-examples" collection of Saioc et al.

32 of the benchmarks also carry a *fixed* variant, giving the 105-program
population (73 leaky + 32 correct) used for the marking-overhead study
(Figure 4).

The generated names are synthetic analogs — the original goker corpus
distills real GitHub issues; rebuilding each verbatim is neither possible
nor necessary here, since the defect families and flakiness behavior are
what the detector is exercised against (documented in DESIGN.md).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.microbench import patterns
from repro.microbench.flaky import FLAKY_BENCHMARKS

SOURCE_GOKER = "goker"
SOURCE_CGO = "cgo"


class Microbenchmark:
    """One microbenchmark: a leaky body plus its expected leak sites."""

    __slots__ = ("name", "source", "body", "sites", "fixed", "flaky")

    def __init__(self, name: str, source: str, body: Callable,
                 sites: List[str], fixed: Optional[Callable] = None,
                 flaky: bool = False):
        self.name = name
        self.source = source
        self.body = body
        self.sites = sites
        self.fixed = fixed
        self.flaky = flaky

    def __repr__(self) -> str:
        kind = "flaky" if self.flaky else "deterministic"
        return (
            f"<bench {self.name} [{self.source}, {kind}] "
            f"sites={len(self.sites)}>"
        )


#: (builder, is one of the six "cgo-examples" stand-ins)
_ONE_SITE_BUILDERS = [
    patterns.forgotten_receiver,
    patterns.forgotten_sender,
    patterns.double_send,
    patterns.wg_no_done,
    patterns.mutex_never_unlocked,
    patterns.cond_missed_signal,
    patterns.select_both_blocked,
    patterns.nil_channel_send,
    patterns.empty_select,
    patterns.buffered_overflow,
    patterns.timeout_abandons_worker,
    patterns.daisy_chain,
    patterns.sema_never_released,
    patterns.listing7_sendmail,
]
_TWO_SITE_BUILDERS = [
    patterns.range_no_close,
    patterns.rwmutex_stuck_pair,
    patterns.wg_and_channel_pair,
]
_THREE_SITE_BUILDERS = [
    patterns.fanin_no_consumer,
    patterns.pipeline_no_cancellation,
]

_PROJECTS = [
    "cockroach", "etcd", "grpc", "kubernetes", "moby", "hugo",
    "istio", "serving", "syncthing", "prometheus",
]

#: Builders whose *first* generated instance represents the cgo-examples
#: collection (8 sites across 6 benchmarks, as in the paper).
_CGO_PATTERNS = {
    patterns.listing7_sendmail: "cgo/sendmail",
    patterns.range_no_close: "cgo/funcmanager",
    patterns.double_send: "cgo/double-send",
    patterns.timeout_abandons_worker: "cgo/timeout-leak",
    patterns.forgotten_receiver: "cgo/dropped-result",
    patterns.wg_and_channel_pair: "cgo/wg-chain",
}


def _issue_number(index: int) -> int:
    """Deterministic goker-style issue number for a generated benchmark."""
    return 1000 + (index * 2657) % 88000


def _generate_deterministic() -> List[Microbenchmark]:
    benches: List[Microbenchmark] = []
    cgo_used: Dict[Callable, bool] = {}

    def add(builder: Callable, index: int) -> None:
        if builder in _CGO_PATTERNS and not cgo_used.get(builder):
            cgo_used[builder] = True
            name = _CGO_PATTERNS[builder]
            source = SOURCE_CGO
        else:
            project = _PROJECTS[index % len(_PROJECTS)]
            name = f"{project}/{_issue_number(index)}"
            source = SOURCE_GOKER
        body, labels, fixed = builder(name)
        benches.append(Microbenchmark(name, source, body, labels,
                                      fixed=fixed, flaky=False))

    index = 0
    for _ in range(34):  # one-site benchmarks
        add(_ONE_SITE_BUILDERS[index % len(_ONE_SITE_BUILDERS)], index)
        index += 1
    for _ in range(18):  # two-site benchmarks
        add(_TWO_SITE_BUILDERS[index % len(_TWO_SITE_BUILDERS)], index)
        index += 1
    for _ in range(8):  # three-site benchmarks
        add(_THREE_SITE_BUILDERS[index % len(_THREE_SITE_BUILDERS)], index)
        index += 1
    return benches


def _build_registry() -> List[Microbenchmark]:
    benches = [
        Microbenchmark(name, SOURCE_GOKER, body, labels, flaky=True)
        for name, (body, labels) in FLAKY_BENCHMARKS.items()
    ]
    benches.extend(_generate_deterministic())
    return benches


_REGISTRY: Optional[List[Microbenchmark]] = None


def all_benchmarks() -> List[Microbenchmark]:
    """The full corpus (73 benchmarks, 121 leaky sites), built once."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


def benchmarks_by_name() -> Dict[str, Microbenchmark]:
    return {b.name: b for b in all_benchmarks()}


def total_leaky_sites() -> int:
    return sum(len(b.sites) for b in all_benchmarks())


#: Size of Figure 4's "correct programs" population.
CORRECT_PROGRAMS = 32


def correct_benchmarks() -> List[Microbenchmark]:
    """Fixed variants for the Figure 4 "correct programs" population."""
    fixed = [b for b in all_benchmarks() if b.fixed is not None]
    return fixed[:CORRECT_PROGRAMS]


def ground_truth() -> List[Dict[str, object]]:
    """The labeled populations behind ``repro vet --crossval``.

    One row per analyzable program, sorted by name: the 73 known-leaky
    bodies (GOLF's dynamic detector reclaims their annotated sites) and
    the 32 known-clean fixed variants.  Each row carries the dynamic
    ground truth the static analyzer is judged against::

        {"name", "source", "population": "leaky" | "fixed",
         "leaky": bool, "sites": [go-labels], "flaky": bool,
         "body": generator-function}
    """
    rows: List[Dict[str, object]] = []
    for bench in sorted(all_benchmarks(), key=lambda b: b.name):
        rows.append({
            "name": bench.name, "source": bench.source,
            "population": "leaky", "leaky": True,
            "sites": list(bench.sites), "flaky": bench.flaky,
            "body": bench.body,
        })
        if bench.fixed is not None:
            rows.append({
                "name": f"{bench.name}__fixed", "source": bench.source,
                "population": "fixed", "leaky": False,
                "sites": [], "flaky": bench.flaky,
                "body": bench.fixed,
            })
    return rows
