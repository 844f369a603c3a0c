"""The kernel is closed (docs/ARCHITECTURE.md, "Layers").

``repro.runtime`` + ``repro.gc`` + ``repro.core`` (+ ``repro.errors``)
load and run alone: nothing in them imports an observer, a driver or the
daemon at module load, and the function-level imports that reach upward
are a fixed, named list.  An option or an upward edge added later has to
edit this file and say who needs it.  Likewise the byte form of every
artifact: ``json`` is spelled in ``repro.codec`` and nowhere else.
"""

from __future__ import annotations

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro import GolfConfig, Runtime
from repro.telemetry import TelemetryHub, get_default_hub, set_default_hub

PACKAGE = Path(repro.__file__).parent
KERNEL = ("runtime", "gc", "core")
#: What a kernel module may import at load: the kernel and the errors.
INSIDE = tuple(f"repro.{pkg}" for pkg in KERNEL + ("errors",))

#: Every function-level import from the kernel to a package above it:
#: four façade conveniences of ``Runtime`` (the benchmark and the tests
#: call them) and provenance capture, which is always on by design.
ALLOWED_UPWARD = {
    ("runtime/api.py", "Runtime.detect_partial_deadlock", "repro.daemon"),
    ("runtime/api.py", "Runtime.enable_tracing", "repro.trace"),
    ("runtime/api.py", "Runtime.enable_telemetry", "repro.telemetry.hub"),
    ("runtime/api.py", "Runtime.start_metrics_scrape",
     "repro.telemetry.tsdb"),
    ("gc/collector.py", "Collector._report_and_recover",
     "repro.trace.provenance"),
}


def _outside(module: str) -> bool:
    return module.startswith("repro.") and not any(
        module == inside or module.startswith(inside + ".")
        for inside in INSIDE)


def _scoped(node, scope=()):
    """Every AST node under ``node`` with its enclosing def/class names."""
    yield node, scope
    for child in ast.iter_child_nodes(node):
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
        yield from _scoped(child, scope + (child.name,) if named else scope)


def _upward_imports():
    """``(file, enclosing function or None, module)`` for every import
    of a non-kernel ``repro`` module under the kernel packages."""
    found = []
    for pkg in KERNEL:
        for source in sorted((PACKAGE / pkg).glob("*.py")):
            for node, scope in _scoped(ast.parse(source.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] if node.level == 0 else []
                else:
                    continue
                found.extend((f"{pkg}/{source.name}", ".".join(scope) or None,
                              module)
                             for module in modules if _outside(module))
    return found


def test_bare_runtime_loads_only_the_kernel():
    code = ("import sys\n"
            "from repro.runtime.api import Runtime\n"
            "Runtime()\n"
            "print('\\n'.join(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] == 'repro')))\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True, check=True).stdout
    loaded = out.split()
    assert "repro.runtime.api" in loaded
    strays = [m for m in loaded if _outside(m)]
    assert strays == [], f"a bare Runtime() loaded {strays}"


def test_kernel_imports_nothing_above_it_at_load():
    top_level = [(path, module) for path, scope, module in _upward_imports()
                 if scope is None]
    assert top_level == []


def test_function_level_upward_imports_are_the_allowlist():
    lazy = {entry for entry in _upward_imports() if entry[1] is not None}
    assert lazy == ALLOWED_UPWARD


_JSON_CALLS = ("dump", "dumps", "load", "loads")


def test_json_is_spelled_only_in_the_codec():
    """One writer, one reader (docs/ARCHITECTURE.md, "On-disk formats"):
    ``json`` is used by :mod:`repro.codec` and by ``BehaviorModel.hash``
    (a hash input, not an artifact), and ``need`` is defined once."""
    json_users, need_defs = set(), []
    for source in sorted(PACKAGE.rglob("*.py")):
        path = source.relative_to(PACKAGE).as_posix()
        for node, scope in _scoped(ast.parse(source.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in _JSON_CALLS
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "json"):
                json_users.add((path, ".".join(scope)))
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                json_users.add((path, "from json import"))
            elif isinstance(node, ast.FunctionDef) and node.name == "need":
                need_defs.append(path)
    assert json_users == {
        ("codec.py", "dumps"), ("codec.py", "loads"),
        ("staticcheck/behavior.py", "BehaviorModel.hash")}
    assert need_defs == ["codec.py"]


def test_default_hub_slot_holds_exactly_the_current_hub():
    first, second = TelemetryHub(), TelemetryHub()
    try:
        set_default_hub(first)
        set_default_hub(second)
        assert get_default_hub() is second
        assert Runtime().telemetry is second
        assert first.runtimes_attached == 0 and second.runtimes_attached == 1
    finally:
        set_default_hub(None)
    assert get_default_hub() is None
    assert Runtime().telemetry is None
    assert second.runtimes_attached == 1


def test_kernel_option_counts():
    # 11: golf, reclaim, detect_every, on_the_fly_roots, gogc,
    # min_heap_bytes, on_report, dead_global_hints, gc_mode, mark_budget,
    # sweep_budget.  3: procs, seed, config.  The cost model is constants
    # (core/config.py, Scheduler.base_cost_ns), not options.
    assert len(inspect.signature(GolfConfig).parameters) == 11
    assert len(inspect.signature(Runtime).parameters) == 3
