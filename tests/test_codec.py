"""One writer, one reader per on-disk format (docs/ARCHITECTURE.md).

Every loader and validator, fed a mutated copy of a real document,
either accepts it or raises :class:`~repro.errors.ArtifactError` — never
a ``KeyError`` / ``TypeError`` / ``AttributeError`` — and a field-level
rejection names a key on the mutated path.  The six malformed shapes
that escaped as raw exceptions before the codec are pinned first; they
use only names that predate it, so they can be run against an older
``src`` to see them fail.
"""

from __future__ import annotations

import copy
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.fleet import FleetConfig, run_fleet, validate_fleet_artifact
from repro.runtime.instructions import Go, MakeChan, Recv, Send
from repro.staticcheck.behavior import (
    BehaviorModel,
    analyze_callable_behavior,
)
from repro.staticcheck.proofs import ProofRegistry, build_registry
from repro.telemetry import (
    FingerprintStore,
    run_observed_benchmark,
    validate_dash_artifact,
    validate_exposition,
)
from repro.telemetry.dashboard import run_dash
from repro.trace.chrome import validate_chrome_trace
from repro.trace.driver import run_traced_benchmark


@pytest.fixture(scope="module")
def codec():
    return pytest.importorskip("repro.codec")


# ---------------------------------------------------------------------------
# The six shapes that used to escape untyped
# ---------------------------------------------------------------------------


def _rejects(call, *names):
    with pytest.raises(ReproError) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert type(info.value).__name__ == "ArtifactError"
    for name in names:
        assert name in str(info.value), str(info.value)


@pytest.mark.parametrize("text, names", [
    ("[]", ("should be an object",)),
    ('{"records": [{"fingerprint": "x"}]}', ("records[0]", "go_site")),
    ('{"records": 3}', ("records",)),
])
def test_fingerprint_db_shapes_are_typed_errors(tmp_path, text, names):
    path = tmp_path / "fingerprints.json"
    path.write_text(text)
    _rejects(lambda: FingerprintStore().load(str(path)), str(path), *names)


def test_proof_registry_that_is_not_an_object():
    _rejects(lambda: ProofRegistry.from_json("[]"), "proof registry")


def test_fleet_artifact_with_a_non_object_shard(fleet_doc):
    doc = copy.deepcopy(fleet_doc)
    doc["shards"][0] = 3
    _rejects(lambda: validate_fleet_artifact(doc), "shards[0]")


def test_chrome_trace_with_a_non_object_event():
    _rejects(lambda: validate_chrome_trace({"traceEvents": [3]}), "event 0")


def test_missing_fingerprint_db_is_an_oserror(tmp_path):
    with pytest.raises(OSError):
        FingerprintStore().load(str(tmp_path / "absent.json"))


# ---------------------------------------------------------------------------
# One real document per format
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet_doc():
    config = FleetConfig(shards=2, seed=3, users=12, leak_rate=0.25,
                         min_requests=1, max_requests=3)
    return run_fleet(config, "sequential").to_dict()


@pytest.fixture(scope="module")
def dash_doc():
    doc = run_dash(shards=2, users=4, seed=0).to_dict()
    # Small runs fire no alert; give the timeline checks one event.
    doc["alert_timeline"].append({
        "t": 5, "rule": doc["rules"][0]["name"], "severity": "page",
        "labels": {}, "from": "ok", "to": "firing", "kind": "fired",
        "shard": 0})
    return doc


@pytest.fixture(scope="module")
def observed_hub():
    return run_observed_benchmark("cgo/sendmail", seed=0).hub


@pytest.fixture(scope="module")
def registry_doc(codec):
    def body():
        done = yield MakeChan(0, label="done")

        def worker(ch=done):
            yield Send(ch, 1)

        yield Go(worker)
        yield Recv(done)

    analysis = analyze_callable_behavior(body, name="cert_body")
    return codec.loads(build_registry([analysis]).to_json())


@pytest.fixture(scope="module")
def documents(codec, fleet_doc, dash_doc, observed_hub, registry_doc):
    """``{format: (document, reader)}``, every document JSON-native."""
    readers = {
        "fleet": (fleet_doc, validate_fleet_artifact),
        "dash": (dash_doc, validate_dash_artifact),
        "chrome": (run_traced_benchmark("cgo/sendmail", seed=0).chrome,
                   validate_chrome_trace),
        "fingerprints": (observed_hub.fingerprints.as_dict(),
                         FingerprintStore.from_dict),
        "proofs": (registry_doc,
                   lambda doc: ProofRegistry.from_json(codec.dumps(doc))),
    }
    return {name: (codec.loads(codec.dumps(doc)), reader)
            for name, (doc, reader) in readers.items()}


FORMATS = ("fleet", "dash", "chrome", "fingerprints", "proofs")


@pytest.mark.parametrize("name", FORMATS)
def test_the_real_document_is_accepted_and_round_trips(
        codec, documents, name):
    doc, reader = documents[name]
    reader(doc)
    text = codec.dumps(doc)
    assert codec.loads(text) == doc
    assert codec.dumps(codec.loads(text)) == text
    assert codec.loads(codec.dumps(doc, compact=True)) == doc
    assert text.endswith("}\n") and not text.endswith("\n\n")


def test_a_rehashed_certificate_naming_an_undeclared_channel(
        codec, registry_doc):
    """Beyond a random mutation's reach: the model is damaged *and* its
    hash recomputed, so only re-exploration can notice."""
    doc = copy.deepcopy(registry_doc)
    (cert,) = doc["certificates"]
    for component in cert["model"]["components"]:
        for step in component["steps"]:
            step["chan"] = 999
    cert["model_hash"] = BehaviorModel.from_dict(cert["model"]).hash()
    _rejects(lambda: ProofRegistry.from_json(codec.dumps(doc)),
             "failed verification", "model-not-explorable")


def test_the_fingerprint_document_has_records(documents):
    assert documents["fingerprints"][0]["records"]
    assert documents["proofs"][0]["certificates"]


# ---------------------------------------------------------------------------
# Mutations
# ---------------------------------------------------------------------------

#: A value of another JSON type, per type: what "swap a value's type" and
#: "replace an object by a scalar / list" put in a node's place.
_OTHER = {dict: [3, [], "x"], list: [3, {}, None], str: [3, [], None],
          int: ["x", [], None], float: ["x", {}], bool: ["x", 7],
          type(None): [3, {}]}

_NEED_MESSAGE = re.compile(
    r"missing key '(\w+)'|'(\w+)' should be|'(\w+)' is malformed")


def _mutate(data, doc):
    """Walk to a random node of ``doc`` and damage it in place (drop the
    key, or put a value of another type there); returns the string keys
    on the path walked."""
    keys, node = [], doc
    while True:
        step = data.draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        if isinstance(node, dict):
            keys.append(step)
        child = node[step]
        if not (isinstance(child, (dict, list)) and child
                and data.draw(st.booleans())):
            break
        node = child
    if isinstance(node, dict) and data.draw(st.booleans()):
        del node[step]
    else:
        node[step] = data.draw(st.sampled_from(_OTHER[type(child)]))
    return keys


@pytest.mark.parametrize("name", FORMATS)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_a_mutated_document_is_accepted_or_a_typed_error(
        codec, documents, name, data):
    original, reader = documents[name]
    doc = copy.deepcopy(original)
    keys = _mutate(data, doc)
    try:
        reader(doc)
    except codec.ArtifactError as exc:
        assert isinstance(exc, ReproError) and isinstance(exc, ValueError)
        named = _NEED_MESSAGE.search(str(exc))
        if named:
            # A field-level rejection points at the damage, not at a
            # bystander.
            assert next(filter(None, named.groups())) in keys, (
                str(exc), keys)


@pytest.mark.parametrize("name", FORMATS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_truncated_text_is_a_typed_error(codec, documents, name, data):
    text = codec.dumps(documents[name][0]).rstrip("\n")
    cut = data.draw(st.integers(0, len(text) - 1))
    with pytest.raises(codec.ArtifactError, match="not valid JSON"):
        codec.loads(text[:cut], name)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_a_mutated_exposition_is_counted_or_a_typed_error(
        codec, observed_hub, data):
    text = observed_hub.render_prometheus()
    assert validate_exposition(text) > 50
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    how = data.draw(st.sampled_from(("drop", "truncate", "cut", "garble")))
    if how == "drop":
        del lines[i]
    elif how == "truncate":
        lines = lines[:i] + [lines[i][:data.draw(
            st.integers(0, len(lines[i])))]]
    elif how == "cut":
        at = data.draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + lines[i][at + 1:]
    else:
        at = data.draw(st.integers(0, len(lines[i])))
        lines[i] = (lines[i][:at] + data.draw(st.sampled_from('{}",= #\\'))
                    + lines[i][at:])
    try:
        assert validate_exposition("\n".join(lines) + "\n") > 0
    except codec.ArtifactError as exc:
        assert re.match(r"line \d+: |exposition ", str(exc)), str(exc)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=20)


@given(doc=_JSON, compact=st.booleans())
def test_any_json_value_round_trips(codec, doc, compact):
    text = codec.dumps(doc, compact=compact)
    assert text.endswith("\n") and codec.loads(text) == doc


def test_need_and_need_version(codec):
    doc = {"schema_version": 2, "n": 1}
    assert codec.need(doc, "n", int, "doc") == 1
    assert codec.need(doc, "absent", int, "doc", 7) == 7
    codec.need_version(doc, 2, "doc")
    for call, names in [
            (lambda: codec.need(doc, "absent", int, "doc"),
             ("doc", "absent")),
            (lambda: codec.need(doc, "n", str, "doc"), ("doc", "'n'", "int")),
            (lambda: codec.need(doc, "n", str, "doc", "x"), ("'n'",)),
            (lambda: codec.need([], "n", int, "doc"), ("doc", "list")),
            (lambda: codec.need_version(doc, 1, "doc"),
             ("doc", "schema_version 2 != 1")),
            (lambda: codec.need_version({}, 1, "doc"), ("schema_version",))]:
        _rejects(call, *names)


def test_write_creates_the_directory_and_read_reads_it_back(codec, tmp_path):
    path = str(tmp_path / "a" / "b" / "doc.json")
    assert codec.write(path, {"b": 1, "a": [1, 2]}) == path
    assert open(path).read() == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
    assert codec.read(path) == {"a": [1, 2], "b": 1}
    assert codec.write_text(str(tmp_path / "t.txt"), "x\n").endswith("t.txt")
    (tmp_path / "bad.json").write_text("{")
    _rejects(lambda: codec.read(str(tmp_path / "bad.json")), "bad.json",
             "not valid JSON")
