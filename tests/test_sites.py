"""A site (``file:line``) is named once, where the runtime makes it.

A file of the ``repro`` package is named relative to the package's
parent (``repro/microbench/patterns.py:574``); any other file by its
basename.  Either form is the same from any checkout path and any
working directory, so every artifact that embeds a site is too.
"""

import os
import shutil
import subprocess
import sys

import pytest

import repro
from repro.runtime.goroutine import Goroutine

PACKAGE = os.path.dirname(os.path.abspath(repro.__file__))
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _suspended_in(path):
    """A goroutine whose body is suspended in code compiled as ``path``."""
    namespace = {}
    exec(compile("def body():\n    yield None\n", path, "exec"), namespace)
    gen = namespace["body"]()
    next(gen)
    g = Goroutine(goid=1)
    g.bind(gen, go_site="<test>", parent_goid=0)
    return g


class TestRule:
    @pytest.mark.parametrize("in_package, outside", [
        ("microbench/false_negatives.py", "examples/false_negatives.py"),
        ("apps/kvstore.py", "examples/kvstore.py"),
    ])
    def test_same_basename_inside_and_outside_get_distinct_sites(
            self, in_package, outside):
        inside_path = os.path.join(PACKAGE, in_package)
        outside_path = os.path.join(REPO, outside)
        assert os.path.exists(inside_path) and os.path.exists(outside_path)
        inside = _suspended_in(inside_path)
        other = _suspended_in(outside_path)
        assert inside.block_site() == f"repro/{in_package}:2"
        assert other.block_site() == f"{os.path.basename(outside)}:2"
        assert inside.stack_trace() == [f"body (repro/{in_package}:2)"]
        assert other.stack_trace() == [
            f"body ({os.path.basename(outside)}:2)"]

    def test_a_sibling_sharing_the_package_prefix_is_outside(self):
        g = _suspended_in(os.path.join(PACKAGE + "_extra", "mod.py"))
        assert g.block_site() == "mod.py:2"


_RUN = """
import repro
from repro.cli import main
print(repro.__file__)
main(["run", "--benchmark", "cgo/sendmail", "--seed", "0",
      "--out-dir", "out"])
"""


def _run_from(tmp_path, checkout, cwd):
    """Run ``cgo/sendmail`` (seed 0) with a copy of the package at
    ``checkout`` from working directory ``cwd``; returns the package
    file it imported, its report text and its artifacts."""
    shutil.copytree(PACKAGE, tmp_path / checkout / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    os.makedirs(tmp_path / cwd, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(tmp_path / checkout))
    proc = subprocess.run([sys.executable, "-c", _RUN], cwd=tmp_path / cwd,
                          env=env, capture_output=True, text=True,
                          check=True)
    imported, _banner, *text = proc.stdout.splitlines()
    out = tmp_path / cwd / "out"
    artifacts = {name: (out / name).read_bytes()
                 for name in sorted(os.listdir(out))}
    return imported, text, artifacts


def test_artifacts_do_not_depend_on_the_checkout_path(tmp_path):
    a = _run_from(tmp_path, "a", "a")
    b = _run_from(tmp_path, "b/deeper/checkout", "elsewhere")
    assert a[0].startswith(str(tmp_path / "a" / "repro") + os.sep)
    assert b[0].startswith(
        str(tmp_path / "b/deeper/checkout" / "repro") + os.sep)
    assert a[1] == b[1]
    assert len(a[2]) == 7
    for name in ("-provenance.json", ".trace.json", "-fingerprints.json"):
        assert any(path.endswith(name) for path in a[2])
    assert a[2] == b[2]
    assert "blocked at: repro/microbench/patterns.py:" in "\n".join(a[1])
