"""Hot-path classes must stay ``__dict__``-free.

The hot-path overhaul put ``__slots__`` on everything the per-yield and
per-mark loops allocate or touch: instruction objects (allocated per
yield), sudogs and wakeups (per channel operation), goroutine
descriptors and heap objects (per mark visit), virtual processors and
GC bookkeeping.  A per-instance ``__dict__`` on any of these costs an
extra allocation per hot-path object and slower attribute access — this
test walks ``repro.runtime`` and ``repro.gc`` so a future class (or a
slotless subclass of a slotted one) cannot silently regress that.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import pkgutil

import pytest

import repro.gc
import repro.runtime
from repro.runtime.instructions import Instruction
from repro.runtime.objects import HeapObject

#: Classes that legitimately keep a ``__dict__``: per-runtime singletons
#: on cold construction paths, where dynamic attributes (test hooks,
#: tracers, chaos engines) matter more than instance size.
ALLOWED_DICT = {
    "repro.runtime.api.Runtime",
    "repro.runtime.scheduler.Scheduler",
    "repro.gc.collector.Collector",
    "repro.gc.heap.Heap",
}

#: Hot classes flagged by name, beyond the subclass sweeps below.
EXTRA_HOT = {
    "repro.runtime.scheduler._Proc",
    "repro.runtime.scheduler.RunStatus",
    "repro.runtime.channel.Wakeup",
    "repro.runtime.goroutine.Sudog",
    "repro.runtime.sema.SemaTable",
    "repro.gc.stats.CycleStats",
    "repro.gc.stats.GCStats",
    "repro.gc.stats.MemStats",
}


def _walk_classes():
    """Every class defined in the two hot packages."""
    for pkg in (repro.runtime, repro.gc):
        for info in pkgutil.iter_modules(pkg.__path__, pkg.__name__ + "."):
            mod = importlib.import_module(info.name)
            for cls in vars(mod).values():
                if inspect.isclass(cls) and cls.__module__ == info.name:
                    yield cls


def _qualname(cls) -> str:
    return f"{cls.__module__}.{cls.__name__}"


def _instances_have_dict(cls) -> bool:
    """True if instances of ``cls`` carry a ``__dict__``.

    A class is dict-free iff every class on its MRO (bar ``object``)
    declares ``__slots__`` — one slotless link reintroduces the dict.
    """
    return any(
        "__slots__" not in vars(c)
        for c in cls.__mro__[:-1]
    )


def _is_hot(cls) -> bool:
    if issubclass(cls, enum.Enum):
        return False  # enum members are class-level singletons
    if issubclass(cls, (Instruction, HeapObject)):
        return True
    return _qualname(cls) in EXTRA_HOT


ALL_CLASSES = sorted(_walk_classes(), key=_qualname)
HOT_CLASSES = [cls for cls in ALL_CLASSES if _is_hot(cls)]


def test_sweep_finds_the_hot_classes():
    """The sweep actually covers the classes the overhaul targeted."""
    names = {_qualname(cls) for cls in HOT_CLASSES}
    for expected in (
        "repro.runtime.instructions.Send",
        "repro.runtime.instructions.Lock",
        "repro.runtime.instructions.Gosched",
        "repro.runtime.goroutine.Goroutine",
        "repro.runtime.goroutine.Sudog",
        "repro.runtime.channel.Channel",
        "repro.runtime.channel.Wakeup",
        "repro.runtime.scheduler._Proc",
        "repro.gc.stats.CycleStats",
    ):
        assert expected in names
    assert len(HOT_CLASSES) > 50  # the instruction set alone


@pytest.mark.parametrize(
    "cls", HOT_CLASSES, ids=[_qualname(c) for c in HOT_CLASSES])
def test_hot_class_has_no_instance_dict(cls):
    offenders = [
        c.__name__ for c in cls.__mro__[:-1] if "__slots__" not in vars(c)
    ]
    assert not _instances_have_dict(cls), (
        f"{_qualname(cls)} instances carry a __dict__ "
        f"(slotless MRO links: {offenders}); hot-path classes must "
        f"declare __slots__ (see docs/PERFORMANCE.md)")


def test_allowed_dict_list_is_tight():
    """Entries in ALLOWED_DICT must both exist and still need the dict.

    If someone slots a singleton later, this forces the allowlist entry
    to be dropped so the exemption cannot hide a future regression.
    """
    by_name = {_qualname(cls): cls for cls in ALL_CLASSES}
    for name in sorted(ALLOWED_DICT):
        assert name in by_name, f"stale ALLOWED_DICT entry {name}"
        assert _instances_have_dict(by_name[name]), (
            f"{name} is now slotted; remove it from ALLOWED_DICT")


def test_no_unflagged_dict_carriers():
    """Any class outside the allowlist that carries a __dict__ is either
    cold (fine) or a new hot class someone forgot to slot — surface the
    full list so additions are a conscious decision."""
    carriers = {
        _qualname(cls)
        for cls in ALL_CLASSES
        if not issubclass(cls, enum.Enum) and _instances_have_dict(cls)
    }
    assert carriers <= ALLOWED_DICT | {
        _qualname(cls) for cls in ALL_CLASSES if not _is_hot(cls)
    }
    # And no hot class sneaks in via the allowlist.
    assert not {_qualname(c) for c in HOT_CLASSES} & ALLOWED_DICT
