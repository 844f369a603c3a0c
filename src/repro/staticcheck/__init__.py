"""Static partial-deadlock analysis over goroutine bodies (`repro vet`).

The paper (GOLF) detects partial deadlocks *dynamically* via garbage
collection; this package is the static counterpart used for the
precision/recall comparison in §7: an AST abstract interpreter over
goroutine-body generator functions, per-channel behavioral summaries
in the Mini-Go trace-abstraction style, and a rule engine keyed to the
paper's leak taxonomy.

    from repro.staticcheck import analyze_callable, vet_paths

    report = analyze_callable(body_fn)      # registry mode
    vet = vet_paths(["examples/"])          # file mode
    print(vet.format_text())

Cross-validation against GOLF's dynamic ground truth lives in
:mod:`repro.staticcheck.crossval`.

The behavioral-type layer (trace abstraction + synchronous composition
over the same extractions, producing machine-checkable leak-freedom
certificates that the runtime detector consumes) lives in
:mod:`repro.staticcheck.behavior`, :mod:`repro.staticcheck.proofs`, and
:mod:`repro.staticcheck.fusion`; see docs/VET.md.
"""

from repro.staticcheck.model import (
    CLEAN,
    ERROR,
    INFO,
    LEAKY,
    SEVERITY_RANK,
    SUSPECT,
    UNKNOWN,
    WARNING,
    Diagnostic,
    Extraction,
    FunctionReport,
)
from repro.staticcheck.extractor import extract_callable, extract_file
from repro.staticcheck.rules import ALL_RULES, analyze_extraction
from repro.staticcheck.report import (
    Annotation,
    VetReport,
    analyze_callable,
    analyze_file,
    parse_annotations,
    vet_paths,
)
from repro.staticcheck.crossval import CrossvalResult, run_crossval
from repro.staticcheck.behavior import (
    POTENTIAL,
    PROVEN,
    UNPROVEN,
    BehaviorAnalysis,
    analyze_callable_behavior,
    analyze_extraction_behavior,
)
from repro.staticcheck.proofs import (
    Certificate,
    ProofRegistry,
    build_registry,
    certificates_for,
    verify_certificate,
)

__all__ = [
    "ALL_RULES",
    "Annotation",
    "BehaviorAnalysis",
    "CLEAN",
    "Certificate",
    "CrossvalResult",
    "Diagnostic",
    "ERROR",
    "Extraction",
    "FunctionReport",
    "INFO",
    "LEAKY",
    "POTENTIAL",
    "PROVEN",
    "ProofRegistry",
    "SEVERITY_RANK",
    "SUSPECT",
    "UNKNOWN",
    "UNPROVEN",
    "VetReport",
    "WARNING",
    "analyze_callable",
    "analyze_callable_behavior",
    "analyze_extraction",
    "analyze_extraction_behavior",
    "analyze_file",
    "build_registry",
    "certificates_for",
    "extract_callable",
    "extract_file",
    "parse_annotations",
    "run_crossval",
    "vet_paths",
]
