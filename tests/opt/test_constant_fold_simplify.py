"""Tests for constant folding, simplification, and copy propagation."""

from repro.ir import (
    Cond,
    Instr,
    Opcode,
    Program,
    ScalarType,
    build_function,
)
from repro.opt import fold_constants, propagate_copies, simplify
from tests.conftest import run_ideal


def _count(func, opcode):
    return sum(1 for _, i in func.instructions() if i.opcode is opcode)


class TestConstantFolding:
    def test_folds_add(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        result = b.binop(Opcode.ADD32, b.const(2), b.const(3))
        b.ret(result)
        fold_constants(program.main)
        assert _count(program.main, Opcode.ADD32) == 0
        assert run_ideal(program).ret_value == 5

    def test_folds_wrapping_add(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        result = b.binop(Opcode.ADD32, b.const(0x7FFFFFFF), b.const(1))
        b.sink(result)
        b.ret(result)
        gold = run_ideal(program).observable()
        fold_constants(program.main)
        assert run_ideal(program).observable() == gold
        consts = [i.imm for _, i in program.main.instructions()
                  if i.opcode is Opcode.CONST]
        assert -0x80000000 in consts  # Java overflow semantics

    def test_folds_extend_of_constant(self):
        """The paper: constant propagation turns extend into a copy/const."""
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        c = b.const(0xFFF)
        dest = b.func.new_reg(ScalarType.I32)
        b.mov(c, dest)
        b.emit(Instr(Opcode.EXTEND8, dest, (dest,)))
        b.ret(dest)
        fold_constants(program.main)
        assert _count(program.main, Opcode.EXTEND8) == 0
        from repro.ir import wrap_u64
        assert run_ideal(program).ret_value == wrap_u64(-1)  # sext8(0xFF)

    def test_division_by_zero_not_folded(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        result = b.binop(Opcode.DIV32, b.const(5), b.const(0))
        b.ret(result)
        fold_constants(program.main)
        assert _count(program.main, Opcode.DIV32) == 1  # trap preserved

    def test_folds_transitively(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        a = b.binop(Opcode.MUL32, b.const(6), b.const(7))
        c = b.binop(Opcode.ADD32, a, b.const(1))
        b.ret(c)
        fold_constants(program.main)
        assert _count(program.main, Opcode.MUL32) == 0
        assert _count(program.main, Opcode.ADD32) == 0
        assert run_ideal(program).ret_value == 43

    def test_one_dependency_level_per_round_up_to_the_cap(self):
        """A round sees only earlier rounds' folds, and a call makes at
        most ten rounds: of a twelve-deep dependency chain, the first ten
        links fold and the last two wait for the next call."""
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        value = b.const(1)
        for _ in range(12):
            value = b.binop(Opcode.ADD32, value, value)
        b.ret(value)
        assert fold_constants(program.main)
        assert _count(program.main, Opcode.ADD32) == 2
        assert fold_constants(program.main)
        assert _count(program.main, Opcode.ADD32) == 0
        assert not fold_constants(program.main)
        assert run_ideal(program).ret_value == 1 << 12

    def test_folds_cmp(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        p = b.cmp(Opcode.CMP32, Cond.LT, b.const(1), b.const(2))
        b.ret(p)
        fold_constants(program.main)
        assert _count(program.main, Opcode.CMP32) == 0
        assert run_ideal(program).ret_value == 1

    def test_folds_unsigned_cmp(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        # -1 unsigned is the largest 32-bit value.
        p = b.cmp(Opcode.CMP32, Cond.ULT, b.const(-1), b.const(1))
        b.ret(p)
        fold_constants(program.main)
        assert run_ideal(program).ret_value == 0


class TestSimplify:
    def test_add_zero_becomes_mov(self):
        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)],
                           ScalarType.I32)
        result = b.binop(Opcode.ADD32, b.func.params[0], b.const(0))
        b.ret(result)
        simplify(program.main)
        assert _count(program.main, Opcode.ADD32) == 0
        assert _count(program.main, Opcode.MOV) == 1

    def test_mul_zero_becomes_const(self):
        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)],
                           ScalarType.I32)
        result = b.binop(Opcode.MUL32, b.func.params[0], b.const(0))
        b.ret(result)
        simplify(program.main)
        assert _count(program.main, Opcode.MUL32) == 0

    def test_constant_branch_folded_and_unreachable_dropped(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        then_block = b.block("then")
        else_block = b.block("else")
        one = b.const(1)
        zero = b.const(0)
        b.br(one, then_block, else_block)
        b.switch(then_block)
        b.ret(one)
        b.switch(else_block)
        b.ret(zero)
        n_blocks = len(program.main.blocks)
        simplify(program.main)
        assert _count(program.main, Opcode.BR) == 0
        assert len(program.main.blocks) < n_blocks
        assert run_ideal(program).ret_value == 1

    def test_and_minus_one_identity(self):
        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)],
                           ScalarType.I32)
        result = b.binop(Opcode.AND32, b.func.params[0], b.const(-1))
        b.ret(result)
        simplify(program.main)
        assert _count(program.main, Opcode.AND32) == 0


class TestCopyPropagation:
    def test_propagates_single_def_copy(self):
        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)],
                           ScalarType.I32)
        t = b.mov(b.func.params[0])
        result = b.binop(Opcode.ADD32, t, t)
        b.ret(result)
        propagate_copies(program.main)
        add = [i for _, i in program.main.instructions()
               if i.opcode is Opcode.ADD32][0]
        assert all(s.name == b.func.params[0].name for s in add.srcs)

    def test_does_not_propagate_multi_def_source(self):
        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)],
                           ScalarType.I32)
        s = b.func.named_reg("s", ScalarType.I32)
        b.mov(b.func.params[0], s)
        t = b.mov(s)
        b.mov(b.const(5), s)  # s redefined after the copy
        result = b.binop(Opcode.ADD32, t, t)
        b.ret(result)
        gold = run_ideal(program, args=(7,)).ret_value
        propagate_copies(program.main)
        assert run_ideal(program, args=(7,)).ret_value == gold
        add = [i for _, i in program.main.instructions()
               if i.opcode is Opcode.ADD32][0]
        # Must NOT read s (its value changed after the copy).
        assert all(src.name != "s" for src in add.srcs)
