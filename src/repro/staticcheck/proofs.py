"""Machine-checkable leak-freedom certificates and the runtime registry.

The behavioral engine (:mod:`repro.staticcheck.behavior`) proves
individual channels leak-free by exhaustively exploring the closed
trace-term composition of an entry function.  This module packages each
``PROVEN`` verdict as a :class:`Certificate` — the serialized model, the
exploration transcript, and the assumption list — that any consumer can
re-check from scratch with :func:`verify_certificate` (the check re-runs
the exploration on the deserialized model; no trust in the producer is
required beyond the modeling assumptions themselves).

:class:`ProofRegistry` is the runtime side of the fusion: it indexes
certificates by ``(make-site, capacity)`` so that ``make_chan`` can tag
freshly-allocated channels as :attr:`Channel.proven_leak_free
<repro.runtime.channel.Channel>`.  The GOLF detector then treats
goroutines blocked *only* on proven channels as live without scanning
(see ``repro.core.detector``).

Soundness of the site-keyed match requires one care: a make-site proven
leak-free under entry A may be unproven under entry B (the proof is a
whole-program property).  The registry therefore *demotes* any site that
is non-proven in **any** analysis loaded into it — a registry built from
several entry points only keeps sites proven under every one of them.
In practice registries are built per program (one entry), where the
certificate applies exactly.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro import codec
from repro.codec import need
from repro.errors import ArtifactError
from repro.staticcheck.behavior import (
    ASSUMPTIONS,
    PROVEN,
    BehaviorAnalysis,
    BehaviorModel,
    ChannelVerdict,
    explore,
)

#: Bumped whenever the certificate schema or the modeling assumptions
#: change; :func:`verify_certificate` rejects other versions.
CERT_VERSION = 1


def normalize_site(site: str) -> str:
    """Canonical ``file:line`` key: absolute real path, cwd-independent.

    The extractor records cwd-relative paths while the runtime records
    absolute ``co_filename`` paths; both normalize to the same key.
    """
    file, sep, line = site.rpartition(":")
    if not sep:
        return site
    return f"{os.path.realpath(os.path.abspath(file))}:{line}"


class Certificate:
    """A self-contained, re-checkable leak-freedom proof for one channel."""

    __slots__ = ("entry", "file", "make_site", "capacity", "label",
                 "model", "transcript", "model_hash", "assumptions")

    def __init__(self, entry: str, file: str, make_site: str,
                 capacity: int, label: Optional[str], model: BehaviorModel,
                 transcript: Dict[str, Any], model_hash: str,
                 assumptions: Tuple[str, ...] = ASSUMPTIONS):
        self.entry = entry
        self.file = file
        self.make_site = make_site
        self.capacity = capacity
        self.label = label
        self.model = model
        self.transcript = transcript
        self.model_hash = model_hash
        self.assumptions = tuple(assumptions)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": CERT_VERSION,
            "verdict": PROVEN,
            "entry": self.entry,
            "file": self.file,
            "make_site": self.make_site,
            "capacity": self.capacity,
            "label": self.label,
            "model_hash": self.model_hash,
            "assumptions": list(self.assumptions),
            "model": self.model.to_dict(),
            "transcript": self.transcript,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any],
                  where: str = "certificate") -> "Certificate":
        codec.need_version(d, CERT_VERSION, where, key="version")
        model_doc = need(d, "model", dict, where)
        try:
            model = BehaviorModel.from_dict(model_doc)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            # The model's own decoder is not field-checked; whatever it
            # trips on, the certificate is what is malformed.
            raise ArtifactError(
                f"{where}: 'model' is malformed "
                f"({type(exc).__name__}: {exc})") from exc
        return cls(
            entry=need(d, "entry", str, where),
            file=need(d, "file", str, where),
            make_site=need(d, "make_site", str, where),
            capacity=need(d, "capacity", int, where),
            label=need(d, "label", (str, type(None)), where, None),
            model=model,
            transcript=dict(need(d, "transcript", dict, where)),
            model_hash=need(d, "model_hash", str, where),
            assumptions=tuple(
                need(d, "assumptions", list, where, ASSUMPTIONS)),
        )

    def __repr__(self) -> str:
        return f"<Certificate {self.make_site} cap={self.capacity}>"


def certificates_for(analysis: BehaviorAnalysis) -> List[Certificate]:
    """One certificate per ``PROVEN`` channel of ``analysis``."""
    certs: List[Certificate] = []
    if analysis.result is None:
        return certs
    transcript = analysis.result.transcript()
    model_hash = analysis.model.hash()
    for verdict in analysis.verdicts:
        if verdict.verdict != PROVEN:
            continue
        if verdict.capacity is None:
            continue
        certs.append(Certificate(
            entry=analysis.entry_name, file=analysis.file,
            make_site=verdict.make_site, capacity=verdict.capacity,
            label=verdict.label, model=analysis.model,
            transcript=transcript, model_hash=model_hash))
    return certs


def verify_certificate(cert: Certificate) -> Tuple[bool, str]:
    """Re-check a certificate from scratch.

    Re-runs the exhaustive exploration on the *deserialized* model and
    confirms (1) the model hash matches the claim, (2) the exploration
    transcript reproduces, and (3) the certified channel has no stuck
    terminal.  Returns ``(ok, reason)``.
    """
    if cert.model.hash() != cert.model_hash:
        return False, "model-hash-mismatch"
    uid = None
    for cand, info in cert.model.channels.items():
        if (info.get("site") == cert.make_site
                and info.get("capacity") == cert.capacity):
            uid = cand
            break
    if uid is None:
        return False, "channel-not-in-model"
    if uid in cert.model.unknown_channels:
        return False, "channel-marked-unknown"
    try:
        result = explore(cert.model)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        # A model that decodes and hashes as claimed can still refer to
        # objects it does not declare; that is a failed check, not a crash.
        return False, f"model-not-explorable:{type(exc).__name__}"
    if not result.complete:
        return False, "exploration-incomplete"
    if result.transcript() != cert.transcript:
        return False, "transcript-mismatch"
    if uid in result.stuck:
        return False, f"stuck-terminal:{result.stuck[uid]}"
    return True, "ok"


class ProofRegistry:
    """Indexes proven ``(make-site, capacity)`` pairs for the runtime.

    Sites are keyed by :func:`normalize_site`.  Loading an analysis adds
    its proofs *and* demotes any site the analysis could not prove —
    demotion is sticky, so a registry spanning several entries only
    keeps universally-proven sites.
    """

    __slots__ = ("_proven", "_demoted", "verify_on_load")

    def __init__(self, verify_on_load: bool = False):
        self._proven: Dict[Tuple[str, int], Certificate] = {}
        self._demoted: set = set()
        self.verify_on_load = verify_on_load

    def __len__(self) -> int:
        return len(self._proven)

    def add_certificate(self, cert: Certificate) -> bool:
        """Register one certificate; returns whether it was accepted."""
        if self.verify_on_load:
            ok, reason = verify_certificate(cert)
            if not ok:
                raise ArtifactError(
                    f"certificate for {cert.make_site} failed "
                    f"verification: {reason}")
        key = (normalize_site(cert.make_site), cert.capacity)
        if key in self._demoted:
            return False
        self._proven[key] = cert
        return True

    def demote(self, make_site: str, capacity: Optional[int]) -> None:
        """Permanently reject a site (non-proven under some entry)."""
        if capacity is None:
            # Unknown capacity: demote every capacity seen for the site.
            site = normalize_site(make_site)
            self._demoted.add((site, None))
            for key in [k for k in self._proven if k[0] == site]:
                self._demoted.add(key)
                del self._proven[key]
            return
        key = (normalize_site(make_site), capacity)
        self._demoted.add(key)
        self._proven.pop(key, None)

    def add_analysis(self, analysis: BehaviorAnalysis) -> int:
        """Load every verdict of ``analysis``; returns proofs accepted."""
        for verdict in analysis.verdicts:
            if verdict.verdict != PROVEN:
                self.demote(verdict.make_site, verdict.capacity)
        accepted = 0
        for cert in certificates_for(analysis):
            if self.add_certificate(cert):
                accepted += 1
        return accepted

    def is_proven(self, make_site: str, capacity: int) -> bool:
        """Runtime-side lookup used by ``make_chan`` tagging."""
        site = normalize_site(make_site)
        if (site, None) in self._demoted:
            return False
        return (site, capacity) in self._proven

    def proven_sites(self) -> List[Tuple[str, int]]:
        return sorted(self._proven)

    # -- persistence -------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "version": CERT_VERSION,
            "certificates": [self._proven[key].to_dict()
                             for key in sorted(self._proven)],
        }
        return codec.dumps(doc)

    @classmethod
    def from_json(cls, text: str, verify: bool = True) -> "ProofRegistry":
        """Load certificates (re-verified unless ``verify`` is off);
        anything malformed is an :class:`~repro.errors.ArtifactError`."""
        doc = codec.loads(text, "proof registry")
        registry = cls(verify_on_load=verify)
        for i, cert_doc in enumerate(
                need(doc, "certificates", list, "proof registry", ())):
            registry.add_certificate(Certificate.from_dict(
                cert_doc, f"proof registry.certificates[{i}]"))
        return registry


def build_registry(analyses: Iterable[BehaviorAnalysis],
                   verify: bool = False) -> ProofRegistry:
    """Registry over several analyses (universally-proven sites only)."""
    registry = ProofRegistry(verify_on_load=verify)
    for analysis in analyses:
        registry.add_analysis(analysis)
    return registry
