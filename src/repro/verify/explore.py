"""Exhaustive interleaving exploration via scripted scheduler decisions.

The scheduler draws every visible non-deterministic decision from one
RNG: run-queue picks (``randrange``) and select-case choices
(``choice``).  Replacing that RNG with a :class:`ScriptedRandom` turns a
run into a *path* through a decision tree; depth-first enumeration of
decision prefixes then visits every reachable interleaving — the
technique behind stateless model checkers (VeriSoft/CHESS lineage).

Non-branching draws are fixed deterministically: instruction-cost jitter
(``uniform``) returns the midpoint — it does not affect which schedules
are *reachable*, only their timing, so the decision tree stays finite
and small.

Typical use::

    def build():            # a fresh (Runtime, main) pair per path
        rt = Runtime(procs=1, seed=0, config=GolfConfig())
        ...
        return rt, main

    result = explore(build, check=my_invariant)
    assert result.violations == []

Exploration is exponential in program length: keep programs to a handful
of goroutines and operations (the distilled shapes one actually wants
exhaustively verified).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import ReproError


class ScriptedRandom:
    """A ``random.Random`` stand-in driven by a decision list.

    Branching draws (``randrange``, ``choice``) consume one scripted
    decision each and record the domain size; draws beyond the script
    take branch 0 and extend the recorded path, which the explorer then
    backtracks over.
    """

    def __init__(self, script: Sequence[int]):
        self._script = list(script)
        #: (decision_taken, domain_size) per branching draw, in order.
        self.trace: List[Tuple[int, int]] = []

    # -- branching draws -----------------------------------------------------

    def _decide(self, domain: int) -> int:
        index = len(self.trace)
        if domain <= 0:
            raise ValueError("empty decision domain")
        if index < len(self._script):
            decision = self._script[index]
            if decision >= domain:
                # The tree changed shape under this prefix (an earlier
                # branch altered reachability); clamp to stay in range.
                decision = domain - 1
        else:
            decision = 0
        self.trace.append((decision, domain))
        return decision

    def randrange(self, stop: int) -> int:
        return self._decide(stop)

    def choice(self, seq):
        return seq[self._decide(len(seq))]

    # -- non-branching draws ---------------------------------------------------

    def uniform(self, a: float, b: float) -> float:
        return (a + b) / 2.0

    def random(self) -> float:
        return 0.5

    def sample(self, population, k):
        return list(population)[:k]


class ExplorationResult:
    """Everything the exploration observed."""

    def __init__(self) -> None:
        self.paths_run = 0
        self.truncated = False
        #: (path, outcome) for every executed interleaving, where
        #: outcome is whatever the program factory's summarize step
        #: returned (or the error string).
        self.outcomes: List[Tuple[Tuple[int, ...], Any]] = []
        #: check-callback failures: (path, message).
        self.violations: List[Tuple[Tuple[int, ...], str]] = []

    def distinct_outcomes(self) -> set:
        return {repr(outcome) for _, outcome in self.outcomes}

    def __repr__(self) -> str:
        return (
            f"<exploration paths={self.paths_run} "
            f"outcomes={len(self.distinct_outcomes())} "
            f"violations={len(self.violations)}>"
        )


def explore(
    build: Callable[[], Tuple[Any, Any]],
    check: Optional[Callable[[Any], Any]] = None,
    max_paths: int = 2000,
    run_kwargs: Optional[dict] = None,
) -> ExplorationResult:
    """Run ``build()``'s program under every reachable interleaving.

    Args:
        build: returns a fresh ``(runtime, outcome_fn)`` pair;
            ``outcome_fn(runtime, error)`` is called after the run (with
            the raised ``ReproError`` or ``None``) and its return value
            is recorded as the path's outcome.
        check: optional invariant over the runtime, called after every
            path; a raised ``AssertionError`` (or returned string) is
            recorded as a violation instead of aborting the exploration.
        max_paths: safety bound; exploration marks itself truncated when
            the tree is larger.
        run_kwargs: forwarded to ``runtime.run`` (deadlines etc.).
    """
    result = ExplorationResult()
    kwargs = dict(run_kwargs or {})
    kwargs.setdefault("max_instructions", 50_000)
    stack: List[List[int]] = [[]]
    while stack and result.paths_run < max_paths:
        script = stack.pop()
        rt, outcome_fn = build()
        rng = ScriptedRandom(script)
        rt.sched.rng = rng
        error: Optional[ReproError] = None
        try:
            rt.run(**kwargs)
        except ReproError as err:
            error = err
        result.paths_run += 1
        path = tuple(decision for decision, _ in rng.trace)
        outcome = outcome_fn(rt, error) if outcome_fn else None
        result.outcomes.append((path, outcome))
        if check is not None:
            try:
                message = check(rt)
                if message:
                    result.violations.append((path, str(message)))
            except AssertionError as failure:
                result.violations.append((path, str(failure)))
        rt.shutdown()

        # Branch: for every decision beyond the scripted prefix, queue
        # the alternatives (deepest-first for DFS order).
        for index in range(len(rng.trace) - 1, len(script) - 1, -1):
            decision, domain = rng.trace[index]
            for alternative in range(decision + 1, domain):
                prefix = [d for d, _ in rng.trace[:index]]
                stack.append(prefix + [alternative])
    if stack:
        result.truncated = True
    return result
