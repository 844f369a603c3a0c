"""Vet front end: file/function analysis, annotations, reports.

Annotation grammar (machine-readable expectations in source comments):

- ``# vet: expect <rule-id>[, <rule-id>...]`` — the enclosing function
  is expected to trigger exactly these rules;
- ``# vet: clean`` — the enclosing function must produce no warnings
  or errors;
- ``# vet: ok <rule-id> [reason]`` — suppress a diagnostic of that
  rule anchored on this exact line (inline waiver);
- ``# vet: chan=<label> proven|potential|unknown`` — the channel with
  that ``MakeChan`` label in the enclosing function must receive
  exactly this behavioral-type verdict (checked under ``--prove``;
  ignored otherwise).

``expect``/``clean``/``chan`` attach to the *root* function whose span
contains the comment (or whose ``def`` line directly follows it);
``ok`` is line-scoped.  In ``--expect`` mode, expected diagnostics do
not count toward ``--fail-on``, but a missing expectation or an
unexpected warning/error is a failure — the corpus of
intentionally-leaky examples stays green exactly when the analyzer
reproduces its annotations.  Malformed annotations (unknown kind,
missing channel label or expectation, invalid expectation word) are
reported as annotation problems and always fail the run.

All output is deterministic: reports, diagnostics, mismatches, and
problems iterate in sorted order, target paths are normalized, and the
JSON encoder sorts keys — repeated runs are byte-identical regardless
of argument spelling (``examples`` vs ``./examples/``).
"""

from __future__ import annotations

import os
import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import codec
from repro.staticcheck.extractor import extract_callable, extract_file
from repro.staticcheck.model import (
    ERROR,
    INFO,
    SEVERITY_RANK,
    WARNING,
    FunctionReport,
)
from repro.staticcheck.rules import ALL_RULES, analyze_extraction

_ANNOTATION_RE = re.compile(
    r"#\s*vet:\s*(?P<kind>[A-Za-z_][A-Za-z0-9_]*)(?P<args>(?:=|\s|$)"
    r"[^#\n]*|)")

#: Valid expectation words for ``# vet: chan=<label> <expectation>``.
CHAN_EXPECTATIONS = ("proven", "potential", "unknown")


class Annotation:
    __slots__ = ("line", "kind", "rules", "reason", "channel",
                 "expectation")

    def __init__(self, line: int, kind: str, rules: Tuple[str, ...],
                 reason: str = "", channel: str = "",
                 expectation: str = ""):
        self.line = line
        self.kind = kind          # "expect" | "clean" | "ok" | "chan"
        self.rules = rules
        self.reason = reason
        self.channel = channel    # chan: MakeChan label
        self.expectation = expectation  # chan: proven|potential|unknown

    def __repr__(self) -> str:
        if self.kind == "chan":
            return f"<vet:chan={self.channel} {self.expectation} " \
                   f"@{self.line}>"
        return f"<vet:{self.kind} {','.join(self.rules)} @{self.line}>"


def parse_annotations(source: str,
                      problems: Optional[List[str]] = None
                      ) -> List[Annotation]:
    """Parse ``# vet:`` annotations out of ``source``.

    When ``problems`` is given, malformed annotations — unknown kind,
    ``chan`` without a label or expectation, an invalid expectation
    word — append a descriptive message instead of being silently
    dropped.
    """
    out: List[Annotation] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ANNOTATION_RE.search(line)
        if match is None:
            continue
        kind = match.group("kind")
        args = match.group("args")
        if kind == "clean":
            out.append(Annotation(lineno, kind, ()))
        elif kind == "expect":
            rules = tuple(
                tok for tok in re.split(r"[,\s]+", args.strip()) if tok)
            out.append(Annotation(lineno, kind, rules))
        elif kind == "ok":
            parts = args.strip().split(None, 1)
            rule = parts[0] if parts else ""
            reason = parts[1] if len(parts) > 1 else ""
            out.append(Annotation(lineno, kind, (rule,), reason))
        elif kind == "chan":
            ann = _parse_chan_annotation(lineno, args, problems)
            if ann is not None:
                out.append(ann)
        elif problems is not None:
            problems.append(
                f"line {lineno}: unknown annotation kind {kind!r} "
                f"(want expect, clean, ok, or chan=<label>)")
    return out


def _parse_chan_annotation(lineno: int, args: str,
                           problems: Optional[List[str]]
                           ) -> Optional[Annotation]:
    """Parse ``chan=<label> <expectation>``; None when malformed."""
    def problem(message: str) -> None:
        if problems is not None:
            problems.append(f"line {lineno}: {message}")

    args = args.strip()
    if not args.startswith("="):
        problem("malformed channel annotation: want "
                "'chan=<label> <expectation>'")
        return None
    parts = args[1:].split(None, 1)
    label = parts[0] if parts else ""
    if not label:
        problem("malformed channel annotation: missing channel label "
                "after 'chan='")
        return None
    if len(parts) < 2 or not parts[1].strip():
        problem(f"channel annotation 'chan={label}' is missing an "
                f"expectation (want one of: "
                f"{', '.join(CHAN_EXPECTATIONS)})")
        return None
    expectation = parts[1].split()[0]
    if expectation not in CHAN_EXPECTATIONS:
        problem(f"channel annotation 'chan={label}' has invalid "
                f"expectation {expectation!r} (want one of: "
                f"{', '.join(CHAN_EXPECTATIONS)})")
        return None
    return Annotation(lineno, "chan", (), channel=label,
                      expectation=expectation)


def validate_annotations(annotations: Sequence[Annotation]) -> List[str]:
    """Unknown rule ids in annotations are authoring bugs."""
    problems = []
    for ann in annotations:
        for rule in ann.rules:
            if rule and rule not in ALL_RULES:
                problems.append(
                    f"line {ann.line}: unknown rule id {rule!r}")
    return problems


class ExpectMismatch:
    __slots__ = ("function", "file", "kind", "rule", "site")

    def __init__(self, function: str, file: str, kind: str, rule: str,
                 site: str = ""):
        self.function = function
        self.file = file
        self.kind = kind          # "missing" | "unexpected"
        self.rule = rule
        self.site = site

    def sort_key(self) -> Tuple[str, str, str, str, str]:
        return (self.file, self.function, self.kind, self.rule, self.site)

    def to_dict(self) -> Dict[str, str]:
        return {"function": self.function, "file": self.file,
                "kind": self.kind, "rule": self.rule, "site": self.site}

    def format(self) -> str:
        if self.kind == "missing":
            return (f"{self.file}: {self.function}: expected rule "
                    f"{self.rule} did not fire")
        return (f"{self.site}: {self.function}: unexpected {self.rule} "
                f"(no matching `# vet:` annotation)")


class ChanMismatch:
    """A ``# vet: chan=`` expectation the behavioral engine contradicted."""

    __slots__ = ("function", "file", "channel", "expected", "actual")

    def __init__(self, function: str, file: str, channel: str,
                 expected: str, actual: str):
        self.function = function
        self.file = file
        self.channel = channel
        self.expected = expected
        self.actual = actual      # verdict word, or "no-such-channel"

    def sort_key(self) -> Tuple[str, str, str]:
        return (self.file, self.function, self.channel)

    def to_dict(self) -> Dict[str, str]:
        return {"function": self.function, "file": self.file,
                "channel": self.channel, "expected": self.expected,
                "actual": self.actual}

    def format(self) -> str:
        if self.actual == "no-such-channel":
            return (f"{self.file}: {self.function}: chan={self.channel}: "
                    f"no channel with that label")
        return (f"{self.file}: {self.function}: chan={self.channel}: "
                f"expected {self.expected}, behavioral verdict is "
                f"{self.actual}")


def _attach_annotations(
        reports: List[FunctionReport],
        annotations: Sequence[Annotation]) -> List[ExpectMismatch]:
    """Mark expected/suppressed diagnostics and compute mismatches."""
    mismatches: List[ExpectMismatch] = []
    spans = sorted(reports, key=lambda r: r.line)

    def owner_of(line: int) -> Optional[FunctionReport]:
        for report in spans:
            if report.line <= line <= report.end_line:
                return report
        for report in spans:  # comment directly above the def
            if line == report.line - 1:
                return report
        return None

    expected: Dict[int, set] = {}
    annotated: Dict[int, bool] = {}
    for ann in annotations:
        report = owner_of(ann.line)
        if report is None:
            continue
        key = id(report)
        if ann.kind == "clean":
            annotated[key] = True
            expected.setdefault(key, set())
        elif ann.kind == "expect":
            annotated[key] = True
            expected.setdefault(key, set()).update(ann.rules)
        else:  # ok — line-scoped suppression
            for diag in report.diagnostics:
                if diag.site.line == ann.line and \
                        diag.rule == ann.rules[0]:
                    diag.suppressed = True

    for report in spans:
        key = id(report)
        if key not in annotated:
            continue
        want = expected.get(key, set())
        got: Dict[str, str] = {}
        for diag in report.diagnostics:
            if diag.suppressed:
                continue
            if diag.rule in want:
                diag.expected = True
            if SEVERITY_RANK[diag.severity] >= SEVERITY_RANK[WARNING] or \
                    diag.rule in want:
                got.setdefault(diag.rule, str(diag.site))
        for rule in sorted(want - set(got)):
            mismatches.append(ExpectMismatch(
                report.name, report.file, "missing", rule))
        for rule in sorted(set(got) - want):
            mismatches.append(ExpectMismatch(
                report.name, report.file, "unexpected", rule, got[rule]))
    return mismatches


#: Behavioral-verdict constants → annotation expectation words.
_VERDICT_WORDS = {
    "proven-leak-free": "proven",
    "potential-leak": "potential",
    "unknown": "unknown",
}


def _check_chan_annotations(
        reports: List[FunctionReport],
        analyses: List[Any],
        annotations: Sequence[Annotation]) -> List[ChanMismatch]:
    """Join ``chan=`` annotations with behavioral per-channel verdicts."""
    mismatches: List[ChanMismatch] = []
    spans = sorted(zip(reports, analyses), key=lambda pair: pair[0].line)

    def owner_of(line: int):
        for report, analysis in spans:
            if report.line <= line <= report.end_line:
                return report, analysis
        for report, analysis in spans:
            if line == report.line - 1:
                return report, analysis
        return None, None

    for ann in annotations:
        if ann.kind != "chan":
            continue
        report, analysis = owner_of(ann.line)
        if report is None or analysis is None:
            continue
        actual = "no-such-channel"
        for verdict in analysis.verdicts:
            if verdict.label == ann.channel:
                actual = _VERDICT_WORDS[verdict.verdict]
                break
        if actual != ann.expectation:
            mismatches.append(ChanMismatch(
                report.name, report.file, ann.channel,
                ann.expectation, actual))
    return mismatches


class VetReport:
    """Aggregated vet run over one or more targets."""

    def __init__(self):
        self.reports: List[FunctionReport] = []
        self.mismatches: List[ExpectMismatch] = []
        self.chan_mismatches: List[ChanMismatch] = []
        self.annotation_problems: List[str] = []
        self.expect_mode = False
        self.prove_mode = False
        #: Per-function behavioral summaries (prove mode): sorted list of
        #: ``{"function", "file", "channels": [verdict dicts]}``.
        self.proofs: List[Dict[str, Any]] = []

    # -- outcome --------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        out = {"functions": len(self.reports), "clean": 0, "suspect": 0,
               "leaky": 0, "unknown": 0, ERROR: 0, WARNING: 0, INFO: 0}
        for report in self.reports:
            out[report.verdict] += 1
            for diag in report.diagnostics:
                if not diag.suppressed:
                    out[diag.severity] += 1
        return out

    def proof_counts(self) -> Dict[str, int]:
        out = {"proven": 0, "potential": 0, "unknown": 0}
        for entry in self.proofs:
            for chan in entry["channels"]:
                out[_VERDICT_WORDS[chan["verdict"]]] += 1
        return out

    def failures(self, fail_on: str = ERROR) -> List[str]:
        """Human-readable reasons this run should exit non-zero.

        ``fail_on="never"`` disables only the severity gate; expect and
        channel mismatches plus malformed annotations are correctness
        failures and always count.
        """
        reasons: List[str] = []
        if fail_on != "never":
            threshold = SEVERITY_RANK[fail_on]
            findings = []
            for report in self.reports:
                for diag in report.diagnostics:
                    if diag.suppressed or \
                            (diag.expected and self.expect_mode):
                        continue
                    if SEVERITY_RANK[diag.severity] >= threshold:
                        findings.append(
                            f"{diag.site}: {diag.severity}: {diag.rule}")
            reasons.extend(sorted(findings))
        if self.expect_mode:
            reasons.extend(
                m.format()
                for m in sorted(self.mismatches,
                                key=ExpectMismatch.sort_key))
        if self.prove_mode:
            reasons.extend(
                m.format()
                for m in sorted(self.chan_mismatches,
                                key=ChanMismatch.sort_key))
        reasons.extend(sorted(self.annotation_problems))
        return reasons

    # -- rendering ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        doc = {
            "schema": "repro-vet-report/1",
            "expect_mode": self.expect_mode,
            "summary": dict(sorted(self.counts().items())),
            "functions": [r.to_dict() for r in self._sorted_reports()],
            "expect_mismatches": [
                m.to_dict() for m in sorted(self.mismatches,
                                            key=ExpectMismatch.sort_key)],
            "annotation_problems": sorted(self.annotation_problems),
        }
        if self.prove_mode:
            doc["prove_mode"] = True
            doc["proof_summary"] = dict(sorted(
                self.proof_counts().items()))
            doc["proofs"] = list(self.proofs)
            doc["chan_mismatches"] = [
                m.to_dict() for m in sorted(self.chan_mismatches,
                                            key=ChanMismatch.sort_key)]
        return doc

    def to_json(self) -> str:
        return codec.dumps(self.to_dict())

    def _sorted_reports(self) -> List[FunctionReport]:
        return sorted(self.reports, key=lambda r: (r.file, r.line, r.name))

    def format_text(self) -> str:
        lines: List[str] = []
        for report in self._sorted_reports():
            lines.append(f"{report.file}:{report.line}: "
                         f"{report.name}: {report.verdict}")
            for diag in sorted(
                    report.diagnostics,
                    key=lambda d: (d.site.file, d.site.line, d.rule)):
                lines.append("  " + diag.format().replace("\n", "\n  "))
        if self.prove_mode:
            for entry in self.proofs:
                for chan in entry["channels"]:
                    word = _VERDICT_WORDS[chan["verdict"]]
                    label = chan["label"] or "<unlabeled>"
                    lines.append(
                        f"PROOF: {entry['file']}: {entry['function']}: "
                        f"chan {label} @ {chan['make_site']}: {word}"
                        + (f" ({chan['reason']})"
                           if chan.get("reason") else ""))
        if self.expect_mode:
            for mismatch in sorted(self.mismatches,
                                   key=ExpectMismatch.sort_key):
                lines.append(f"EXPECT-MISMATCH: {mismatch.format()}")
        if self.prove_mode:
            for mismatch in sorted(self.chan_mismatches,
                                   key=ChanMismatch.sort_key):
                lines.append(f"CHAN-MISMATCH: {mismatch.format()}")
        for problem in sorted(self.annotation_problems):
            lines.append(f"ANNOTATION: {problem}")
        counts = self.counts()
        lines.append(
            f"vet: {counts['functions']} function(s): "
            f"{counts['leaky']} leaky, {counts['suspect']} suspect, "
            f"{counts['unknown']} unknown, {counts['clean']} clean "
            f"({counts[ERROR]} error(s), {counts[WARNING]} warning(s), "
            f"{counts[INFO]} info)")
        if self.prove_mode:
            pc = self.proof_counts()
            lines.append(
                f"proofs: {pc['proven']} proven, {pc['potential']} "
                f"potential, {pc['unknown']} unknown channel(s)")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Front ends
# ---------------------------------------------------------------------------


def analyze_callable(fn: Callable, name: Optional[str] = None
                     ) -> FunctionReport:
    """Analyze one live goroutine-body function (registry mode)."""
    return analyze_extraction(extract_callable(fn, name=name))


def analyze_file(path: str) -> List[FunctionReport]:
    """Analyze every root generator function in a source file."""
    return [analyze_extraction(ex) for ex in extract_file(path)]


def _expand_targets(paths: Sequence[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        path = os.path.normpath(path)
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                dirs[:] = [d for d in dirs if not d.startswith((".", "__"))]
                for name in sorted(names):
                    if name.endswith(".py") and not name.startswith("__"):
                        files.append(
                            os.path.normpath(os.path.join(root, name)))
        else:
            files.append(path)
    seen = set()
    out = []
    for path in files:
        if path not in seen:
            seen.add(path)
            out.append(path)
    return out


def vet_paths(paths: Sequence[str], expect: bool = False,
              prove: bool = False) -> VetReport:
    """Run the analyzer over files/directories and aggregate.

    ``prove`` additionally runs the behavioral-type engine per root
    function, records every channel's proven/potential/unknown verdict,
    and enforces ``# vet: chan=`` expectations.
    """
    vet = VetReport()
    vet.expect_mode = expect
    vet.prove_mode = prove
    for path in _expand_targets(paths):
        extractions = extract_file(path)
        reports = [analyze_extraction(ex) for ex in extractions]
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        parse_problems: List[str] = []
        annotations = parse_annotations(source, problems=parse_problems)
        vet.annotation_problems.extend(
            f"{path}: {problem}" for problem in parse_problems)
        vet.annotation_problems.extend(
            f"{path}: {problem}"
            for problem in validate_annotations(annotations))
        vet.mismatches.extend(_attach_annotations(reports, annotations))
        if prove:
            from repro.staticcheck.behavior import (
                analyze_extraction_behavior,
            )
            analyses = [analyze_extraction_behavior(ex)
                        for ex in extractions]
            for report, analysis in sorted(
                    zip(reports, analyses),
                    key=lambda pair: (pair[0].file, pair[0].line,
                                      pair[0].name)):
                if not analysis.verdicts:
                    continue
                vet.proofs.append({
                    "function": report.name,
                    "file": report.file,
                    "channels": [v.to_dict() for v in analysis.verdicts],
                })
            vet.chan_mismatches.extend(
                _check_chan_annotations(reports, analyses, annotations))
        vet.reports.extend(reports)
    return vet
