"""The flattened executor dispatch table, proven complete and faithful.

Two safety nets for the hot-path overhaul:

- **completeness** — every concrete instruction class has exactly one
  dense opcode and exactly one handler, and the precompiled
  ``_DISPATCH`` table agrees entry-for-entry with the legacy
  ``_HANDLERS`` dict it replaced (so adding an instruction without
  wiring both paths fails here, not in production);
- **differential** — the table-dispatched executor and the legacy
  dict-dispatched interpreter fingerprint identically (the ``dispatch``
  pair of :mod:`repro.equivalence`: status, reports, instruction
  counts, final virtual clocks, GC counts) on each of the 73 registry
  benchmarks at two seeds; the whole 125-program corpus is swept in
  ``tests/test_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.equivalence import PAIRS, Program, compare
from repro.microbench.registry import all_benchmarks
from repro.runtime import executor
from repro.runtime import instructions as ins


class TestDispatchTableCompleteness:
    def test_every_concrete_instruction_has_one_opcode(self):
        concrete = [
            cls for cls in vars(ins).values()
            if isinstance(cls, type)
            and issubclass(cls, ins.Instruction)
            and cls is not ins.Instruction
            and not cls.__name__.startswith("_")
        ]
        assert len(concrete) == len(ins.OPCODE_ORDER)
        assert set(concrete) == set(ins.OPCODE_ORDER)
        # Opcodes are dense, unique, and match table positions.
        assert [cls.OP for cls in ins.OPCODE_ORDER] == list(
            range(ins.OP_COUNT))

    def test_abstract_bases_have_no_opcode(self):
        assert "OP" not in vars(ins._OneOperand)
        assert ins.Instruction.__dict__["OP"] == -1

    def test_dispatch_table_matches_legacy_handlers(self):
        assert set(executor._HANDLERS) == set(ins.OPCODE_ORDER)
        assert len(executor._DISPATCH) == ins.OP_COUNT
        assert executor._OP_CLASS == list(ins.OPCODE_ORDER)
        for cls in ins.OPCODE_ORDER:
            assert executor._DISPATCH[cls.OP] is executor._HANDLERS[cls]

    def test_every_handler_is_distinct_per_semantics(self):
        # One handler per opcode slot; the table holds no gaps.
        assert all(callable(h) for h in executor._DISPATCH)

    def test_subclass_falls_back_to_legacy_exact_type_semantics(self):
        # A user subclass inherits the parent's OP but fails the identity
        # check, landing in execute_legacy — which rejects unknown exact
        # types, preserving the historical contract.
        class FancyGosched(ins.Gosched):
            __slots__ = ()

        assert FancyGosched.OP == ins.Gosched.OP
        assert executor._OP_CLASS[FancyGosched.OP] is not FancyGosched


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "bench", all_benchmarks(), ids=[b.name for b in all_benchmarks()])
def test_table_vs_legacy_differential(bench, seed):
    diffs = compare(PAIRS["dispatch"], Program(bench, False),
                    procs=2, seed=seed)
    assert diffs == []
