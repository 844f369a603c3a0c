"""The kernel is closed (docs/ARCHITECTURE.md, "Layers").

``repro.runtime`` + ``repro.gc`` + ``repro.core`` (+ ``repro.errors``)
load and run alone: nothing in them imports an observer, a driver or the
daemon at module load, and the function-level imports that reach upward
are a fixed, named list.  An option or an upward edge added later has to
edit this file and say who needs it.  Likewise the byte form of every
artifact: ``json`` is spelled in ``repro.codec`` and nowhere else.  And
every option has a caller: a defaulted parameter that no program passes
(a test or an example does not count) is a constant, not an option.
And every output has a reader: a metric series nothing reads is not
registered.  And every committed artifact has exactly one writer that
CI checks.  And every module has a reader: one that no bench script, equivalence pair or
content-checked CLI step imports is deleted or kept with a reason, and
an equivalence pair alone does not count.  And every on-disk format in docs/ARCHITECTURE.md's table has a writer.
And the package imports nothing but itself and the standard library.
"""

from __future__ import annotations

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import GolfConfig, Runtime
from repro.apps.jobqueue import JobQueueConfig
from repro.apps.kvstore import KVConfig
from repro.chaos.scenarios import Scenario
from repro.corpus.generator import CorpusConfig
from repro.fleet.router import TrafficModel
from repro.fleet.shard import ShardSpec
from repro.fleet.supervisor import FleetConfig
from repro.fuzz import fuzz_program
from repro.service.longrun import LongRunConfig
from repro.service.resilience import ResilienceConfig
from repro.telemetry import TelemetryHub

PACKAGE = Path(repro.__file__).parent
REPO = PACKAGE.parent.parent
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


def test_an_untraced_detection_loads_no_tracer():
    # Provenance capture runs on every detection and imports
    # ``repro.trace.provenance``; the package resolves its re-exports on
    # first use, so the ring and the Chrome exporter stay unloaded.
    code = ("import sys\n"
            "from repro.microbench.harness import run_microbenchmark\n"
            "from repro.microbench.registry import benchmarks_by_name\n"
            "rts = []\n"
            "run_microbenchmark(benchmarks_by_name()['cgo/sendmail'],\n"
            "                   procs=2, rt_hook=rts.append)\n"
            "assert rts[0].reports and rts[0].tracer is None\n"
            "print('\\n'.join(sorted(m for m in sys.modules\n"
            "                        if m.startswith('repro.trace'))))\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["repro.trace", "repro.trace.events",
                           "repro.trace.provenance"]


def test_the_e2e_imports_load_no_multiprocessing():
    # Only the fleet's multiprocessing mode needs the module; imported
    # at load time it costs every benchmark worker about 1 MiB of RSS.
    imports = sorted({
        ast.unparse(node)
        for source in sorted((REPO / "benchmarks" / "e2e").glob("*.py"))
        for node in ast.walk(ast.parse(source.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and (node.module or "").split(".")[0] == "repro"})
    assert len(imports) > 10
    code = "\n".join(["import sys", *imports,
                      "print('multiprocessing' in sys.modules)"])
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False"]


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
    ``json`` is used by :mod:`repro.codec` alone, and ``need`` is
    defined once."""
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
    assert json_users == {("codec.py", "dumps"), ("codec.py", "loads")}
    assert need_defs == ["codec.py"]


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="sys.stdlib_module_names is new in 3.10")
def test_the_package_imports_only_itself_and_the_stdlib():
    """``pyproject.toml`` declares no dependency, and CI installs only
    the test tools: every import under ``src/repro`` names ``repro`` or
    a standard-library module."""
    foreign = []
    for source in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            foreign.extend(
                (source.relative_to(PACKAGE).as_posix(), module)
                for module in modules
                if module.split(".")[0] != "repro"
                and module.split(".")[0] not in sys.stdlib_module_names)
    assert foreign == []


def test_no_ambient_slot_reaches_a_runtime():
    """A hub or a collector mode reaches a runtime only as an argument:
    a hub built or attached elsewhere in the process never attaches
    itself to the next runtime, and ``GolfConfig()`` is the atomic
    collector whatever configs were built before it."""
    hub = TelemetryHub()
    assert Runtime().telemetry is None
    incremental = GolfConfig(gc_mode="incremental")
    assert Runtime(config=incremental).config.incremental
    assert hub.attach(Runtime()) is hub
    fresh = Runtime()
    assert fresh.telemetry is None and fresh.config.gc_mode == "atomic"


def test_kernel_option_counts():
    # 9: golf, reclaim, detect_every, min_heap_bytes, on_report,
    # dead_global_hints, gc_mode, mark_budget, sweep_budget.
    # 3: procs, seed, config.  The pacer and the cost model are constants
    # (core/config.py, Scheduler.base_cost_ns), not options; the restart
    # fixpoint is a reference (gc.collector.use_restart_fixpoint), not one.
    assert len(inspect.signature(GolfConfig).parameters) == 9
    assert len(inspect.signature(Runtime).parameters) == 3


# -- every option has a caller ------------------------------------------------

#: Where the census reads calls: the programs whose outputs are
#: committed or measured (``src`` includes the package itself).  A test
#: or an example is not a caller: a value only they pass is a
#: configuration no program runs.
CALLER_TREES = ("src", "benchmarks")

#: Defaulted parameters no call passes, kept on purpose:
#: ``(file, callable, parameter) -> why``.
KEPT_DEFAULTS = {
    ("runtime/sync.py", "Cond", "label"):
        "Go API mirror: sync.NewCond's optional debug label",
    ("runtime/goroutine.py", "Goroutine", "name"):
        "Go API mirror: the goroutine's optional trace name",
    ("runtime/context.py", "Context", "deadline_ns"):
        "Go API mirror: context.Context without a deadline",
    ("runtime/errgroup.py", "with_context", "parent"):
        "Go API mirror: errgroup.WithContext(ctx)",
    ("core/checkpoint.py", "CheckpointManager.register", "state"):
        "program data: a subsystem's host state, absent when it has none",
    ("staticcheck/model.py", "Extraction", "end_line"):
        "program data: a one-line entry ends where it starts",
    ("runtime/api.py", "Runtime.go", "name"):
        "Go API mirror: the goroutine's optional trace name",
    ("runtime/api.py", "Runtime.new_mutex", "label"):
        "Go API mirror: sync.Mutex's optional debug label",
    ("runtime/api.py", "Runtime.new_rwmutex", "label"):
        "Go API mirror: sync.RWMutex's optional debug label",
    ("runtime/api.py", "Runtime.new_pool", "new"):
        "Go API mirror: sync.Pool without a New function",
    ("runtime/context.py", "with_timeout", "parent"):
        "Go API mirror: context.WithTimeout(context.Background(), d)",
    ("runtime/objects.py", "Slice", "items"):
        "Go API mirror: an empty slice",
    ("runtime/objects.py", "GoMap", "entries"):
        "Go API mirror: an empty map",
    ("core/config.py", "GolfConfig", "mark_budget"):
        "set by the program: the GC_BUDGET_PERTURB chaos fault assigns it "
        "(chaos/injector.py:179)",
    ("core/config.py", "GolfConfig", "sweep_budget"):
        "set by the program: the GC_BUDGET_PERTURB chaos fault assigns it "
        "(chaos/injector.py:180)",
    ("verify/explore.py", "explore", "check"):
        "interface of a KEPT_MODULES module (repro.verify.explore)",
    ("verify/explore.py", "explore", "max_paths"):
        "interface of a KEPT_MODULES module (repro.verify.explore)",
}
#: Defaulted parameters only a test passes, left for the ``benchmark``
#: change that owns their callers (ROADMAP item 2): the e2e workloads
#: build these configs, or that change deletes them.  Empty after it.
AWAITING_BENCHMARK_PR = {
    **{("service/controlled.py", "ControlledConfig", field):
       "the svc-leak-* workloads build ControlledConfig"
       for field in ("procs", "connections", "map_entries", "downstream_ms",
                     "downstream_jitter_ms", "handler_work_us",
                     "periodic_gc_ms")},
    ("service/controlled.py", "run_controlled", "telemetry"):
        "run_controlled runs the svc-leak-* workloads",
    **{("service/production.py", "ProductionConfig", field):
       "the svc-prod* workloads build ProductionConfig"
       for field in ("procs", "connections", "downstream_ms",
                     "downstream_jitter_ms", "think_time_ms",
                     "handler_work_ms", "metric_interval_min",
                     "periodic_gc_s")},
    **{("service/checkpointed.py", "CheckpointedConfig", field):
       "the recovery-campaign workload runs CheckpointedConfig()"
       for field in ("procs", "seed", "workers", "jobs", "poison_rate",
                     "work_us", "daemon_interval_ms", "redeliver_after_ms",
                     "deadline_ms")},
    ("fleet/supervisor.py", "FleetConfig", "min_requests"):
        "the fleet-4shard workload builds FleetConfig",
    ("fleet/supervisor.py", "FleetConfig", "max_requests"):
        "the fleet-4shard workload builds FleetConfig",
    ("telemetry/tsdb.py", "TimeSeriesDB", "max_points"):
        "ROADMAP item 2 deletes the TSDB with the scraper",
    ("runtime/api.py", "Runtime.enable_telemetry", "hub"):
        "ROADMAP item 2 rewrites enable_telemetry with the scraper",
}
#: Modules of microbenchmark builders, whose defaulted parameters are
#: program data: the Go source line each site mirrors, a chain's length.
PROGRAM_DATA = ("microbench/patterns.py", "microbench/false_negatives.py")


def _name(node):
    """The callee name of a call, attribute or bare name (else None)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _signature(node):
    """``[(parameter, default node or None)]`` a call to ``node`` binds,
    ``self`` excluded; a class binds its dataclass / NamedTuple fields or
    its ``__init__``."""
    if isinstance(node, ast.ClassDef):
        if ("dataclass" in map(_name, node.decorator_list)
                or "NamedTuple" in map(_name, node.bases)):
            return [(s.target.id, s.value) for s in node.body
                    if isinstance(s, ast.AnnAssign)
                    and "ClassVar" not in ast.unparse(s.annotation)]
        init = [s for s in node.body
                if isinstance(s, ast.FunctionDef) and s.name == "__init__"]
        return _signature(init[0])[1:] if init else []
    args = node.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    return ([(a.arg, d) for a, d in zip(positional, defaults)]
            + [(a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)])


def _public_callables():
    """``(file, qualified name, callee name, signature)`` for every
    public module-level function and class of the package and every
    public method of such a class."""
    for source in sorted(PACKAGE.rglob("*.py")):
        path = source.relative_to(PACKAGE).as_posix()
        tree = ast.parse(source.read_text())
        classes = {node.name for node in tree.body
                   if isinstance(node, ast.ClassDef)}
        for node, scope in _scoped(tree):
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if len(scope) == 1:
                yield path, node.name, node.name, _signature(node)
            elif (len(scope) == 2 and scope[0] in classes
                  and not scope[0].startswith("_")
                  and "property" not in map(_name, node.decorator_list)):
                signature = _signature(node)
                if "staticmethod" not in map(_name, node.decorator_list):
                    signature = signature[1:]
                yield path, ".".join(scope), node.name, signature


def _setdefaults(fn, mapping):
    """The string keys ``fn`` fills with ``mapping.setdefault(key, ...)``
    when ``mapping`` is a bare name (a ``**`` forwarder's defaults)."""
    if fn is None or not isinstance(mapping, ast.Name):
        return set()
    return {node.args[0].value for node in ast.walk(fn)
            if isinstance(node, ast.Call) and _name(node) == "setdefault"
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == mapping.id
            and node.args and isinstance(node.args[0], ast.Constant)}


def _calls():
    """``(callee, positional count or None, keyword names, forwarder)``
    for every call under :data:`CALLER_TREES`.

    A ``*`` argument passes every positional parameter.  A ``**``
    argument inside a function with its own ``**`` parameter forwards
    whatever that function receives (``forwarder`` is its name), plus
    the keys the function fills in with ``setdefault``; any other ``**``
    passes the string keys of the dicts its function builds, or
    everything (``forwarder`` is ``"*"``) when it builds none.
    ``cls(...)`` calls the enclosing class; ``partial(f, ...)`` calls
    ``f``."""
    for tree_name in CALLER_TREES:
        for source in sorted((REPO / tree_name).rglob("*.py")):
            defs = {}
            for node, scope in _scoped(ast.parse(source.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    defs[scope] = node
                if not isinstance(node, ast.Call):
                    continue
                chain = [defs.get(scope[:i]) for i in range(1, len(scope) + 1)]
                functions = [d for d in chain if isinstance(
                    d, (ast.FunctionDef, ast.AsyncFunctionDef))]
                classes = [d for d in chain if isinstance(d, ast.ClassDef)]
                callee, args = _name(node.func), node.args
                if callee == "cls" and classes:
                    callee = classes[-1].name
                elif callee == "partial" and args:
                    callee, args = _name(args[0]), args[1:]
                if callee is None:
                    continue
                keywords, forwarder = set(), None
                for kw in node.keywords:
                    if kw.arg is not None:
                        keywords.add(kw.arg)
                        continue
                    fn = functions[-1] if functions else None
                    keywords |= _setdefaults(fn, kw.value)
                    built = set()
                    for inner in ast.walk(fn) if fn is not None else ():
                        if isinstance(inner, ast.Dict):
                            built.update(k.value for k in inner.keys
                                         if isinstance(k, ast.Constant))
                        elif _name(inner) == "dict" and isinstance(
                                inner, ast.Call):
                            built.update(k.arg for k in inner.keywords
                                         if k.arg)
                    keywords |= built
                    if fn is not None and fn.args.kwarg is not None:
                        forwarder = fn.name
                    elif not built:
                        forwarder = "*"
                starred = any(isinstance(a, ast.Starred) for a in args)
                yield (callee, None if starred else len(args), keywords,
                       forwarder)


def _never_passed():
    """``(file, callable, parameter)`` of every defaulted parameter of a
    public callable that no call passes, positionally, by keyword or by
    ``**`` forwarding (callees matched by name)."""
    calls = list(_calls())
    received = {}  # callee name -> keywords its callers pass, forwarded
    changed = True
    while changed:
        changed = False
        for callee, _, keywords, forwarder in calls:
            got = received.setdefault(callee, set())
            new = keywords | received.get(forwarder, set())
            if not new <= got:
                got |= new
                changed = True
    by_callee = {}
    for call in calls:
        by_callee.setdefault(call[0], []).append(call)

    def passes(call, index, param):
        _, positional, keywords, forwarder = call
        return (forwarder == "*" or positional is None or positional > index
                or param in keywords or param in received.get(forwarder, ()))

    return [(path, qualname, param)
            for path, qualname, callee, signature in _public_callables()
            for index, (param, default) in enumerate(signature)
            if default is not None and not any(
                passes(call, index, param)
                for call in by_callee.get(callee, ()))]


def test_every_option_has_a_caller():
    """A defaulted parameter no program sets (an experiment, the package
    itself or a benchmark; a test or an example does not count) is a
    configuration nothing runs: make it a constant, or say here why it
    stays."""
    never = _never_passed()
    listed = {**KEPT_DEFAULTS, **AWAITING_BENCHMARK_PR}
    assert len(listed) == len(KEPT_DEFAULTS) + len(AWAITING_BENCHMARK_PR)
    unset = [entry for entry in never
             if entry not in listed and entry[0] not in PROGRAM_DATA]
    assert unset == [], "never passed:\n" + "\n".join(
        f"  {path}: {qualname}({param})" for path, qualname, param in unset)
    stale = set(listed) - set(never)
    assert stale == set(), f"listed defaults now passed somewhere: {stale}"


#: Every registered series and what reads it: ``metric name -> reader``.
OUTPUT_READERS = {
    "repro_sched_context_switches_total":
        "the `repro run` report's context-switch line (cli._cmd_run)",
    "repro_gc_cycles_total":
        "the `repro run` report's after-quiescence gc-cycle count "
        "(cli._cmd_run)",
    "repro_clock_ns":
        "tests/test_daemon.py reads its scrape timestamps to check the "
        "scraper's cadence",
}


def test_every_output_has_a_reader():
    """A series nothing reads still costs its hot-path update, a `.prom`
    line and a TSDB point per scrape: give it a reader, or drop it."""
    registered = [metric.name for metric in TelemetryHub().registry]
    unread = [name for name in registered if name not in OUTPUT_READERS]
    assert unread == [], f"{len(unread)} series nobody reads:\n" + "\n".join(
        f"  {name}" for name in unread)
    stale = set(OUTPUT_READERS) - set(registered)
    assert stale == set(), f"readers of unregistered series: {stale}"


def test_metric_catalog_is_the_registry():
    """docs/OBSERVABILITY.md's catalog lists exactly the registered
    series, once each."""
    text = (REPO / "docs" / "OBSERVABILITY.md").read_text()
    table = text.split("## Metric catalog", 1)[1].split("\n\n*Read by*")[0]
    documented = [line.split("`")[1] for line in table.splitlines()
                  if line.startswith("| `")]
    assert sorted(documented) == [m.name for m in TelemetryHub().registry]


def test_every_on_disk_format_has_a_writer():
    """docs/ARCHITECTURE.md's "On-disk formats" table names a writer in
    every row: a format nothing writes is a loader for files that do not
    exist, so it is deleted, not listed."""
    text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
    section = text.split("## 13. On-disk formats", 1)[1].split("\n## ")[0]
    header, *rows = [line.split(" | ") for line in section.splitlines()
                     if line.startswith("| ")]
    assert header[2] == "written by" and len(rows) >= 10
    unwritten = [row[0].lstrip("| ") for row in rows if row[2] == "—"]
    assert unwritten == [], f"formats nothing writes: {unwritten}"


# -- every committed artifact has one writer ----------------------------------

ARTIFACTS = "benchmarks/out"


def _emitted_stems():
    """``stem -> count`` of every ``emit("<stem>", ...)`` in the bench
    scripts; an ``emit`` whose name is not a literal is a problem."""
    stems, problems = {}, []
    for source in sorted((REPO / "benchmarks").glob("bench_*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Call) and _name(node) == "emit":
                first = node.args[0] if node.args else None
                if (isinstance(first, ast.Constant)
                        and isinstance(first.value, str)):
                    stems[first.value] = stems.get(first.value, 0) + 1
                else:
                    problems.append(f"{source.name}:{node.lineno}: emit "
                                    "of a name that is not a literal")
    return stems, problems


def _ci_diffed():
    """``path -> count`` of the targets of CI ``git diff --exit-code``
    steps."""
    targets = {}
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    for line in ci.splitlines():
        command = line.split("git diff --exit-code --", 1)
        for path in command[1].split() if len(command) == 2 else ():
            targets[path] = targets.get(path, 0) + 1
    return targets


def test_every_committed_artifact_has_one_writer():
    """A committed table, figure or campaign is written by exactly one
    bench ``emit`` or checked by exactly one CI ``git diff`` step, and
    every ``emit`` writes a committed file: a second writer drifts from
    the first, and an uncommitted output is a file nothing reads."""
    committed = subprocess.run(
        ["git", "ls-files", ARTIFACTS], cwd=REPO, capture_output=True,
        text=True, check=True).stdout.split()
    stems, problems = _emitted_stems()
    diffed = _ci_diffed()
    for path in committed:
        name = path[len(ARTIFACTS) + 1:]
        if name == "README.md":
            continue
        stem, ext = os.path.splitext(name)
        writers = diffed.get(path, 0) + (stems.get(stem, 0)
                                         if ext == ".txt" else 0)
        if writers != 1:
            problems.append(f"{path}: {writers} writers")
    for stem in sorted(stems):
        if f"{ARTIFACTS}/{stem}.txt" not in committed:
            problems.append(f"{stem}: emitted but not committed")
    assert problems == [], "\n".join(problems)


# -- every module has a reader ------------------------------------------------

#: The CLI subcommands whose CI step checks content (a committed campaign
#: JSON, the vet floors, the equivalence pairs, fleet mode equivalence,
#: the run's leak-report incident, fingerprint count and evidence
#: chains), not only a same-seed rerun of their own output: the imports
#: in their ``_cmd_*`` bodies are roots.  ``cli.py``'s module-level
#: imports are not.
CHECKED_COMMANDS = ("chaos", "daemon", "vet", "equiv", "fleet", "run")

#: Modules no reader root reaches, kept on purpose: ``module -> why``.
KEPT_MODULES = {
    "repro.verify.explore":
        "exhaustive-schedule soundness tests (tests/test_verify_explore.py), "
        "the base of the schedule oracle",
    "repro.microbench.false_negatives":
        "the paper's Listings 4 and 5, asserted by tests/test_completeness.py",
    "repro.baselines.leakprof":
        "the paper's LeakProf comparator claims (sections 1 and 7), "
        "asserted by tests/test_baselines.py",
}


def _module_trees():
    """``(dotted name -> AST, package names)`` of every module under
    ``src/repro`` and ``benchmarks``."""
    trees, packages = {}, set()
    for base, top in ((PACKAGE.parent, "repro"), (REPO, "benchmarks")):
        for source in sorted((base / top).rglob("*.py")):
            parts = source.relative_to(base).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
                packages.add(".".join(parts))
            trees[".".join(parts)] = ast.parse(source.read_text())
    return trees, packages


def _import_graph():
    """``module -> modules its imports read``.

    ``from pkg import name`` reads the module that defines ``name``,
    followed through the package ``__init__`` re-exports; a package's
    own imports of its submodules are re-exports, not edges.  Importing
    a module also loads its parent packages."""
    trees, packages = _module_trees()
    exports = {}  # (package, name) -> (module, name) it re-exports
    for package in packages:
        for node in trees[package].body:
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith(package + ".")):
                for alias in node.names:
                    exports[package, alias.asname or alias.name] = (
                        node.module, alias.name)

    def targets(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        found = []
        for alias in node.names:
            module, name = node.module, alias.name
            while (f"{module}.{name}" not in trees
                   and (module, name) in exports):
                module, name = exports[module, name]
            found.append(f"{module}.{name}" if f"{module}.{name}" in trees
                         else module)
        return found

    graph = {}
    for module, tree in trees.items():
        nodes = ast.walk(tree)
        if module == "repro.cli":
            nodes = (inner for node in tree.body
                     if isinstance(node, ast.FunctionDef)
                     and node.name.removeprefix("_cmd_") in CHECKED_COMMANDS
                     for inner in ast.walk(node))
        edges = set()
        for node in nodes:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if module in packages and (node.module or "").startswith(
                    module + "."):
                continue
            edges.update(targets(node))
        graph[module] = edges & set(trees)
    return graph


def _reached(graph, roots):
    """Every module loading ``roots`` loads, parent packages included."""
    seen, todo = set(), list(roots)
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(graph[module])
            todo.extend(parent for parent in (module.rpartition(".")[0],)
                        if parent in graph)
    return seen


def _reader_roots(graph):
    """The bench scripts, ``benchmarks/e2e``, ``repro.equivalence`` and
    ``python -m repro``, which reaches the CLI, whose edges are the
    checked commands' imports."""
    return ({m for m in graph
             if m.startswith(("benchmarks.bench_", "benchmarks.e2e."))
             and "tests" not in m.split(".")}
            | {"repro.__main__", "repro.equivalence"})


def test_every_module_has_a_reader():
    """A module no bench script, equivalence pair, content-checked CLI
    step or kept paper claim imports is code nothing reads: give it a
    reader, or delete it (docs/ARCHITECTURE.md, "Layers")."""
    graph = _import_graph()
    roots = _reader_roots(graph)
    reached = _reached(graph, roots)
    kept = _reached(graph, roots | set(KEPT_MODULES))
    unread = sorted(m for m in graph
                    if m.startswith("repro") and m not in kept)
    assert unread == [], f"{len(unread)} module(s) nothing reads:\n" + \
        "\n".join(f"  {m}" for m in unread)
    stale = sorted(set(KEPT_MODULES) & reached)
    assert stale == [], f"kept modules now read by a root: {stale}"
    assert set(KEPT_MODULES) <= set(graph), "kept modules that do not exist"


def test_an_equivalence_pair_is_not_a_reader():
    """A pair only proves its leg B passive; a module that only a pair
    imports is code the program never reads (docs/ARCHITECTURE.md,
    "Layers").  Cut ``repro.equivalence``'s own import edges: every
    ``repro`` module the roots still load must stay loaded."""
    graph = _import_graph()
    roots = _reader_roots(graph) | set(KEPT_MODULES)
    cut = dict(graph, **{"repro.equivalence": set()})
    only_paired = sorted(m for m in _reached(graph, roots)
                         - _reached(cut, roots) if m.startswith("repro"))
    assert only_paired == [], (
        "module(s) read only by an equivalence pair:\n"
        + "\n".join(f"  {m}" for m in only_paired))


def test_shrunk_config_sizes():
    # Pinned after the caller census removed every field no program sets
    # (ResilienceConfig: chaos_scenario plus ProductionConfig's keywords).
    sizes = {TelemetryHub: 0, FleetConfig: 10, TrafficModel: 6,
             ShardSpec: 6, Scenario: 7, ResilienceConfig: 2,
             LongRunConfig: 5, KVConfig: 2, JobQueueConfig: 2,
             CorpusConfig: 3, fuzz_program: 2}
    assert {obj.__name__: len(inspect.signature(obj).parameters)
            for obj in sizes} == {obj.__name__: n for obj, n in sizes.items()}
