"""Corpus generation: packages, tests, and shared library leak sites.

The corpus models what the paper's RQ1(b) experiment actually measures:
a monorepo where a moderate number of *defective library locations* leak
goroutines into the test suites of many packages.  Deduplicated reports
correspond to library sites; individual reports correspond to (package,
test) occurrences.

Site kinds:

- ``detectable`` sites leak through ordinary abandoned channels /
  WaitGroups — GOLF sees them whenever a GC cycle runs after the leak;
- ``invisible`` sites leak behind globally reachable channels or runaway
  live goroutines (the paper's Listings 4-5) — only goleak sees them.

Detectable sites are given a higher occurrence weight (common helpers are
common), which is what drives GOLF's individual-report share above its
deduplicated share, as in the paper (60% vs 50%).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from repro.runtime.clock import MICROSECOND
from repro.runtime.instructions import (
    Alloc,
    GetGlobal,
    Go,
    MakeChan,
    NewWaitGroup,
    Recv,
    Send,
    SetGlobal,
    Sleep,
    WgAdd,
    WgWait,
)
from repro.runtime.objects import Struct

KIND_DETECTABLE = "detectable"
KIND_INVISIBLE = "invisible"

#: Detectable leak shapes a library site may take.
_DETECTABLE_SHAPES = ("send", "recv", "waitgroup")
#: Invisible leak shapes (GOLF false negatives by design).
_INVISIBLE_SHAPES = ("global-channel", "heartbeat")


class LibrarySite:
    """One defective library location shared by many packages.

    ``reliable`` models *where in a test suite* the defect tends to fire:
    reliable sites leak early enough that a GC cycle always follows (the
    tests that exercise them force a collection), so GOLF catches every
    occurrence; unreliable sites leak near suite end, where coverage
    depends on whether any later test happens to trigger a cycle.  This
    is the heterogeneity behind the paper's Figure 3 curve (55% of
    deduplicated reports fully found, the rest partially).
    """

    __slots__ = ("label", "kind", "shape", "reliable")

    def __init__(self, label: str, kind: str, shape: str,
                 reliable: bool = True):
        self.label = label
        self.kind = kind
        self.shape = shape
        self.reliable = reliable

    @property
    def golf_detectable(self) -> bool:
        return self.kind == KIND_DETECTABLE

    def leak_body(self) -> Callable:
        """A generator function leaking exactly one goroutine, labeled
        with this site (plus, for heartbeats, one runaway goroutine)."""
        label = self.label
        shape = self.shape

        def body():
            if shape == "send":
                ch = yield MakeChan(0)

                def sender():
                    yield Send(ch, 1)

                yield Go(sender, name=label)
            elif shape == "recv":
                ch = yield MakeChan(0)

                def receiver():
                    yield Recv(ch)

                yield Go(receiver, name=label)
            elif shape == "waitgroup":
                wg = yield NewWaitGroup()
                yield WgAdd(wg, 1)

                def waiter():
                    yield WgWait(wg)

                yield Go(waiter, name=label)
            elif shape == "global-channel":
                # A package-level channel: created once, shared by every
                # later occurrence (as a real `var ch = make(...)` is).
                ch = yield GetGlobal(f"corpus.{label}")
                if ch is None:
                    ch = yield MakeChan(0)
                    yield SetGlobal(f"corpus.{label}", ch)

                def gsender():
                    yield Send(ch, 1)

                yield Go(gsender, name=label)
            elif shape == "heartbeat":
                ch = yield MakeChan(0)
                holder = yield Alloc(Struct(ch=ch, ticks=0))

                def heartbeat():
                    while True:
                        yield Sleep(500 * MICROSECOND)
                        holder["ticks"] = holder["ticks"] + 1

                def hsender():
                    yield Send(holder["ch"], 1)

                yield Go(heartbeat)
                yield Go(hsender, name=label)
            else:  # pragma: no cover - guarded by construction
                raise ValueError(f"unknown shape {shape}")

        return body

    def __repr__(self) -> str:
        return f"<site {self.label} {self.kind}/{self.shape}>"


class TestSpec:
    """One test in a package: clean, or leaking through a library site."""

    __slots__ = ("name", "site", "gc_after")

    def __init__(self, name: str, site: Optional[LibrarySite],
                 gc_after: bool):
        self.name = name
        self.site = site
        self.gc_after = gc_after

    @property
    def leaky(self) -> bool:
        return self.site is not None


class PackageSpec:
    """A package and its test list."""

    __slots__ = ("name", "tests")

    def __init__(self, name: str, tests: List[TestSpec]):
        self.name = name
        self.tests = tests

    def leaky_tests(self) -> List[TestSpec]:
        return [t for t in self.tests if t.leaky]


#: Corpus shape fixed across experiments: the share of sites GOLF can
#: detect, the bounds of a package's test count, the occurrence weight
#: of a detectable site relative to an invisible one, the share of tests
#: that leak, the share of sites that fire early enough for a GC to
#: follow, and the chance a later test forces a collection.
DETECTABLE_FRACTION = 0.5
TESTS_PER_PACKAGE = (3, 10)
DETECTABLE_WEIGHT = 2.0
LEAKY_TEST_FRACTION = 0.35
RELIABLE_SITE_FRACTION = 0.5
GC_AFTER_PROB = 0.25


class CorpusConfig:
    """Knobs for corpus generation.

    Defaults are a ~1/10 scale of the paper's experiment (3 111 packages,
    357 deduplicated sites) so the benchmark harness runs in seconds; the
    ratios, not the absolute counts, are the reproduction target.
    """

    def __init__(
        self,
        n_packages: int = 300,
        n_sites: int = 60,
        seed: int = 42,
    ):
        self.n_packages = n_packages
        self.n_sites = n_sites
        self.seed = seed


def generate_corpus(
    config: Optional[CorpusConfig] = None,
) -> Tuple[List[LibrarySite], List[PackageSpec]]:
    """Build the library-site pool and the package list, deterministically
    from ``config.seed``."""
    config = config or CorpusConfig()
    rng = random.Random(config.seed)

    sites: List[LibrarySite] = []
    n_detectable = round(config.n_sites * DETECTABLE_FRACTION)
    for i in range(config.n_sites):
        if i < n_detectable:
            kind = KIND_DETECTABLE
            shape = _DETECTABLE_SHAPES[i % len(_DETECTABLE_SHAPES)]
        else:
            kind = KIND_INVISIBLE
            shape = _INVISIBLE_SHAPES[i % len(_INVISIBLE_SHAPES)]
        label = f"lib/helper{i:03d}.go:{40 + (i * 7) % 200}"
        reliable = rng.random() < RELIABLE_SITE_FRACTION
        sites.append(LibrarySite(label, kind, shape, reliable=reliable))

    weights = [
        DETECTABLE_WEIGHT if s.golf_detectable else 1.0
        for s in sites
    ]

    packages: List[PackageSpec] = []
    lo, hi = TESTS_PER_PACKAGE
    for p in range(config.n_packages):
        n_tests = rng.randint(lo, hi)
        tests: List[TestSpec] = []
        for t in range(n_tests):
            leaky = rng.random() < LEAKY_TEST_FRACTION
            site = rng.choices(sites, weights=weights)[0] if leaky else None
            if site is not None and site.reliable:
                # Reliable sites fire early: a GC always follows.
                gc_after = True
            else:
                gc_after = rng.random() < GC_AFTER_PROB
            tests.append(TestSpec(f"Test{t}", site, gc_after))
        packages.append(PackageSpec(f"pkg{p:04d}", tests))
    return sites, packages
