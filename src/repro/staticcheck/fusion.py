"""Proof registries for the static→dynamic fusion.

Proven channels are tagged so the GOLF detector skips their sudog scans
(see :mod:`repro.staticcheck.proofs` and ``repro.core.detector``).
That is only admissible if it is *observably neutral* — the ``proofs``
pair of :mod:`repro.equivalence` checks it on every ground-truth
program and both demo services (docs/EQUIVALENCE.md).  This module
builds the registries that check installs:

- one per program, from that program's own analysis — proofs are
  whole-program properties, so a registry is never shared across
  entries;
- one per demo service.  Their entry closures are not statically
  extractable, so the registry comes from the module-level roots
  :func:`repro.staticcheck.extractor.extract_file` finds; an empty
  registry is a valid (trivially neutral) outcome.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Tuple

from repro.staticcheck.behavior import (
    analyze_callable_behavior,
    analyze_extraction_behavior,
)
from repro.staticcheck.extractor import extract_file
from repro.staticcheck.proofs import ProofRegistry, build_registry


def install_program_proofs(rt, program) -> None:
    """Leg hook of the ``proofs`` pair: prove ``program``'s channels and
    install its own registry on the fresh runtime."""
    analysis = analyze_callable_behavior(program.body, name=program.name)
    rt.install_proofs(build_registry([analysis]))


def proof_witness(rt) -> Dict[str, int]:
    """Non-vacuity counters of the ``proofs`` pair: proven sites
    installed, and fixpoint scans the detector actually skipped."""
    return {
        "proven_sites": len(rt.sched.proof_registry),
        "proof_skips": sum(cs.proof_skips
                           for cs in rt.collector.stats.cycles),
    }


def _service_registry(module_file: str) -> ProofRegistry:
    """Registry from a service module's statically extractable roots."""
    analyses = []
    for extraction in extract_file(module_file):
        try:
            analyses.append(analyze_extraction_behavior(extraction))
        except Exception:
            continue
    return build_registry(analyses)


def demo_services() -> List[Tuple[str, Callable[..., Any], ProofRegistry]]:
    """``(name, runner, registry)`` for each demo service; the runner
    takes ``proof_registry=`` for the proofs-on leg."""
    from repro.apps import jobqueue, kvstore

    return [
        (name, runner, _service_registry(os.path.abspath(module.__file__)))
        for name, runner, module in (
            ("apps/kvstore", kvstore.run_kv_workload, kvstore),
            ("apps/jobqueue", jobqueue.run_job_queue, jobqueue),
        )
    ]
