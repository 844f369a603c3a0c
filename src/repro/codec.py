"""The one writer and the one reader of every on-disk artifact.

Building a document is each class's job (its ``to_dict`` *is* the
schema); turning it into bytes and back is this module's alone — so
byte identity across same-seed runs rests on one ``json.dumps`` call,
and a malformed file comes back as one typed error,
:class:`~repro.errors.ArtifactError`, naming the field.  Imports only
the stdlib and :mod:`repro.errors`; the kernel does not import it.
The format table is in docs/ARCHITECTURE.md ("On-disk formats").
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.errors import ArtifactError


def dumps(doc: Any, compact: bool = False) -> str:
    """The canonical text of ``doc``: sorted keys, two-space indent,
    one trailing newline."""
    if compact:
        # One caller: the megabyte-sized Chrome trace.
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path``, creating its directory; returns
    ``path``."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def write(path: str, doc: Any) -> str:
    """Write ``doc`` to ``path`` in the canonical form; returns ``path``."""
    return write_text(path, dumps(doc))


def loads(text: str, what: str = "artifact") -> Any:
    """Parse JSON; a syntax error is an :class:`ArtifactError`."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ArtifactError(f"{what}: not valid JSON ({exc})") from exc


def read(path: str) -> Any:
    """Parse the JSON file at ``path`` (a missing file is an ``OSError``)."""
    with open(path) as fh:
        return loads(fh.read(), path)


_REQUIRED = object()


def need(mapping: Any, key: str, kind, where: str,
         default: Any = _REQUIRED) -> Any:
    """``mapping[key]``, checked: ``mapping`` is an object, has ``key``
    (or ``default`` is given and returned instead), and the value is a
    ``kind`` (a type or tuple of types)."""
    if not isinstance(mapping, dict):
        raise ArtifactError(
            f"{where}: should be an object holding {key!r}, "
            f"got {type(mapping).__name__}")
    if key not in mapping:
        if default is _REQUIRED:
            raise ArtifactError(f"{where}: missing key {key!r}")
        return default
    value = mapping[key]
    if not isinstance(value, kind):
        raise ArtifactError(
            f"{where}: {key!r} should be {kind}, "
            f"got {type(value).__name__}")
    return value


def need_items(mapping: Any, key: str, kind, where: str,
               default: Any = _REQUIRED) -> list:
    """``need(mapping, key, list, ...)`` whose every item is a ``kind``."""
    items = need(mapping, key, list, where, default)
    for i, item in enumerate(items):
        if not isinstance(item, kind):
            raise ArtifactError(
                f"{where}: {key}[{i}] should be {kind}, "
                f"got {type(item).__name__}")
    return items


def need_version(doc: Any, expected: int, where: str,
                 key: str = "schema_version") -> None:
    """Reject a document written under another schema version."""
    found = need(doc, key, int, where)
    if found != expected:
        raise ArtifactError(f"{where}: {key} {found} != {expected}")
