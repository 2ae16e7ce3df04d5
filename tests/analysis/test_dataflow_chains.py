"""Tests for the dataflow framework, reaching defs, UD/DU chains, liveness."""

from repro.analysis import (
    Chains,
    DataflowProblem,
    Direction,
    Liveness,
    Meet,
    ReachingDefinitions,
    bit_indices,
)
from repro.ir import Cond, Opcode, Program, ScalarType, build_function
from tests.conftest import make_fig7_program


def test_bit_indices():
    assert bit_indices(0) == []
    assert bit_indices(0b1) == [0]
    assert bit_indices(0b1010) == [1, 3]
    assert bit_indices(1 << 100) == [100]


def test_bit_indices_sparse_wide_vector():
    """Two set bits 5000 apart: the cost follows the set bits only."""
    assert bit_indices((1 << 5000) | 1) == [0, 5000]


def _two_defs_program():
    """x defined in both arms of a diamond, used at the join."""
    program = Program()
    b = build_function(program, "main", [("p", ScalarType.I32)],
                       ScalarType.I32)
    x = b.func.named_reg("x", ScalarType.I32)
    one = b.const(1)
    two = b.const(2)
    zero = b.const(0)
    left = b.block("left")
    right = b.block("right")
    join = b.block("join")
    cond = b.cmp(Opcode.CMP32, Cond.NE, b.func.params[0], zero)
    b.br(cond, left, right)
    b.switch(left)
    left_def = b.emit_mov = b.mov(one, x)
    b.jmp(join)
    b.switch(right)
    b.mov(two, x)
    b.jmp(join)
    b.switch(join)
    use = b.binop(Opcode.ADD32, x, x)
    b.ret(use)
    return program


class TestReachingDefinitions:
    def test_params_are_definitions(self):
        program = _two_defs_program()
        reaching = ReachingDefinitions(program.main)
        params = [d for d in reaching.definitions if d.is_param]
        assert len(params) == 1
        assert params[0].reg.name == "p_p" or params[0].reg.name == "p"

    def test_both_arm_defs_reach_join(self):
        program = _two_defs_program()
        func = program.main
        chains = Chains(func)
        join = [b for b in func.blocks if b.label.startswith("join")][0]
        add = join.instrs[0]
        defs = chains.defs_for(add, 0)
        assert len(defs) == 2
        assert all(d.instr.opcode is Opcode.MOV for d in defs)


class TestChains:
    def test_du_matches_ud(self):
        func = make_fig7_program(3).main
        chains = Chains(func)
        for block in func.blocks:
            for instr in block.instrs:
                for index in range(len(instr.srcs)):
                    for definition in chains.defs_for(instr, index):
                        if definition.instr is None:
                            uses = chains.uses_of_param(definition.reg)
                        else:
                            uses = chains.uses_of(definition.instr)
                        assert any(
                            u.instr is instr and u.index == index
                            for u in uses
                        )

    def test_loop_carried_defs(self):
        func = make_fig7_program(3).main
        chains = Chains(func)
        body = [b for b in func.blocks if b.label.startswith("body")][0]
        sub = body.instrs[0]
        assert sub.opcode is Opcode.SUB32
        defs = chains.defs_for(sub, 0)
        # i's defs reaching the subtraction: the gload before the loop
        # and the subtraction itself around the back edge.
        opcodes = sorted(d.instr.opcode.value for d in defs)
        assert opcodes == ["gload", "sub32"]

    def test_bypass_and_remove_splices(self):
        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)],
                           ScalarType.I32)
        x = b.func.params[0]
        from repro.ir import Instr

        ext = b.emit(Instr(Opcode.EXTEND32, x, (x,)))
        one = b.const(1)
        add = b.emit(Instr(Opcode.ADD32, b.func.new_reg(ScalarType.I32),
                           (x, one)))
        b.ret(add.dest)
        chains = Chains(program.main)
        assert chains.defs_for(add, 0)[0].instr is ext
        chains.bypass_and_remove(ext)
        defs = chains.defs_for(add, 0)
        assert len(defs) == 1
        assert defs[0].is_param
        # The instruction is physically gone too.
        assert all(i is not ext for _, i in program.main.instructions())


class TestLiveness:
    def test_loop_variable_live_at_header(self):
        func = make_fig7_program(3).main
        liveness = Liveness(func)
        body = [b for b in func.blocks if b.label.startswith("body")][0]
        assert liveness.is_live_out(body.label, "i")
        assert liveness.is_live_out(body.label, "t")

    def test_dead_after_last_use(self):
        func = make_fig7_program(3).main
        liveness = Liveness(func)
        exit_block = [b for b in func.blocks
                      if b.label.startswith("exit")][0]
        # t is consumed by i2d inside the exit block; dead at exit end.
        assert not liveness.is_live_out(exit_block.label, "t")


class TestDataflowFramework:
    def test_forward_union_reaches_fixpoint(self):
        func = make_fig7_program(3).main
        problem = DataflowProblem(func, Direction.FORWARD, Meet.UNION, 4)
        for block in func.blocks:
            problem.facts_for(block).gen = 1
        problem.solve()
        for block in func.blocks:
            if block is not func.entry:
                assert problem.facts_for(block).in_ & 1

    def test_intersect_initialized_optimistically(self):
        func = make_fig7_program(3).main
        problem = DataflowProblem(func, Direction.FORWARD, Meet.INTERSECT, 3)
        assert problem.initial == 0b111
