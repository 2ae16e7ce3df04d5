"""Tests for busy-code-motion PRE."""

from repro.ir import Cond, Opcode, Program, ScalarType, build_function
from repro.opt import fold_constants, propagate_copies
from repro.opt.bcm import busy_code_motion
from tests.conftest import run_ideal


def _count(func, opcode):
    return sum(1 for _, i in func.instructions() if i.opcode is opcode)


class TestFullRedundancy:
    def test_straightline_cse(self):
        program = Program()
        b = build_function(program, "main",
                           [("x", ScalarType.I32), ("y", ScalarType.I32)],
                           ScalarType.I32)
        x, y = b.func.params
        first = b.binop(Opcode.ADD32, x, y)
        second = b.binop(Opcode.ADD32, x, y)
        out = b.binop(Opcode.XOR32, first, second)
        b.sink(out)
        b.ret(out)
        gold = run_ideal(program, args=(3, 4)).observable()
        assert busy_code_motion(program.main)
        assert run_ideal(program, args=(3, 4)).observable() == gold
        assert _count(program.main, Opcode.ADD32) == 1


class TestPartialRedundancy:
    def test_diamond_partial_redundancy(self):
        """e computed on one arm and after the join: BCM inserts on the
        other arm's edge so the join computation dies."""
        program = Program()
        b = build_function(program, "main",
                           [("p", ScalarType.I32), ("x", ScalarType.I32)],
                           ScalarType.I32)
        p, x = b.func.params
        left = b.block("left")
        join = b.block("join")
        cond = b.cmp(Opcode.CMP32, Cond.NE, p, b.const(0))
        b.br(cond, left, join)
        b.switch(left)
        early = b.binop(Opcode.MUL32, x, x)
        b.sink(early)
        b.jmp(join)
        b.switch(join)
        late = b.binop(Opcode.MUL32, x, x)  # partially redundant
        b.sink(late)
        b.ret(late)
        gold_taken = run_ideal(program, args=(1, 6)).observable()
        gold_skip = run_ideal(program, args=(0, 6)).observable()
        assert busy_code_motion(program.main)
        assert run_ideal(program, args=(1, 6)).observable() == gold_taken
        assert run_ideal(program, args=(0, 6)).observable() == gold_skip
        # Dynamically each path now computes the multiply exactly once.
        run = run_ideal(program, args=(1, 6))
        assert run.opcode_counts[Opcode.MUL32] == 1

    def test_loop_invariant_hoisted(self):
        """BCM subsumes LICM: the loop-invariant multiply moves to the
        loop-entry edge."""
        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)],
                           ScalarType.I32)
        x = b.func.params[0]
        i = b.func.named_reg("i", ScalarType.I32)
        acc = b.func.named_reg("acc", ScalarType.I32)
        zero = b.const(0)
        one = b.const(1)
        ten = b.const(10)
        b.mov(zero, i)
        b.mov(zero, acc)
        loop = b.block("loop")
        done = b.block("done")
        b.jmp(loop)
        b.switch(loop)
        invariant = b.binop(Opcode.MUL32, x, x)
        b.binop(Opcode.ADD32, acc, invariant, acc)
        b.binop(Opcode.ADD32, i, one, i)
        cond = b.cmp(Opcode.CMP32, Cond.LT, i, ten)
        b.br(cond, loop, done)
        b.switch(done)
        b.sink(acc)
        b.ret(acc)
        gold = run_ideal(program, args=(7,)).observable()
        assert busy_code_motion(program.main)
        result = run_ideal(program, args=(7,))
        assert result.observable() == gold
        assert result.opcode_counts[Opcode.MUL32] == 1  # once, not 10x

    def test_no_speculation_into_untaken_path(self):
        """Down-safety: nothing is inserted on a path that never needed
        the expression."""
        program = Program()
        b = build_function(program, "main",
                           [("p", ScalarType.I32), ("x", ScalarType.I32)],
                           ScalarType.I32)
        p, x = b.func.params
        compute = b.block("compute")
        skip = b.block("skip")
        cond = b.cmp(Opcode.CMP32, Cond.NE, p, b.const(0))
        b.br(cond, compute, skip)
        b.switch(compute)
        v = b.binop(Opcode.MUL32, x, x)
        b.sink(v)
        b.ret(v)
        b.switch(skip)
        zero = b.const(0)
        b.ret(zero)
        busy_code_motion(program.main)
        run = run_ideal(program, args=(0, 5))
        assert run.opcode_counts.get(Opcode.MUL32, 0) == 0

    def test_extend_motion(self):
        """Idempotent self-extends move out of loops under BCM too."""
        from repro.ir import Instr

        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)],
                           ScalarType.I32)
        x = b.func.params[0]
        i = b.func.named_reg("i", ScalarType.I32)
        zero = b.const(0)
        one = b.const(1)
        five = b.const(5)
        b.mov(zero, i)
        loop = b.block("loop")
        done = b.block("done")
        b.jmp(loop)
        b.switch(loop)
        b.emit(Instr(Opcode.EXTEND32, x, (x,)))
        b.binop(Opcode.ADD32, i, one, i)
        cond = b.cmp(Opcode.CMP32, Cond.LT, i, five)
        b.br(cond, loop, done)
        b.switch(done)
        b.ret(x)
        busy_code_motion(program.main)
        run = run_ideal(program, args=(9,))
        assert run.extend_counts[32] <= 1


class TestIdempotence:
    def test_second_run_is_noop(self):
        program = Program()
        b = build_function(program, "main",
                           [("p", ScalarType.I32), ("x", ScalarType.I32)],
                           ScalarType.I32)
        p, x = b.func.params
        left = b.block("left")
        join = b.block("join")
        cond = b.cmp(Opcode.CMP32, Cond.NE, p, b.const(0))
        b.br(cond, left, join)
        b.switch(left)
        b.sink(b.binop(Opcode.MUL32, x, x))
        b.jmp(join)
        b.switch(join)
        late = b.binop(Opcode.MUL32, x, x)
        b.ret(late)
        busy_code_motion(program.main)
        # A second application finds nothing partially redundant.
        gold = run_ideal(program, args=(1, 2)).observable()
        busy_code_motion(program.main)
        assert run_ideal(program, args=(1, 2)).observable() == gold


class TestAfterOtherPasses:
    def test_chains_cached_by_earlier_passes_do_not_go_stale(self):
        """Folding and copy propagation leave the function's UD/DU chains
        cached; BCM's insertions, and the GCSE, copy propagation and DCE
        it runs afterwards, must not read them as they were."""
        program = Program()
        b = build_function(program, "main",
                           [("p", ScalarType.I32), ("x", ScalarType.I32)],
                           ScalarType.I32)
        p, x = b.func.params
        left = b.block("left")
        join = b.block("join")
        cond = b.cmp(Opcode.CMP32, Cond.NE, p, b.const(0))
        b.br(cond, left, join)
        b.switch(left)
        b.sink(b.binop(Opcode.MUL32, x, x))
        b.jmp(join)
        b.switch(join)
        late = b.binop(Opcode.MUL32, x, x)  # partially redundant
        b.sink(late)
        b.ret(late)
        golds = {args: run_ideal(program, args=args).observable()
                 for args in ((1, 6), (0, 6))}
        fold_constants(program.main)
        propagate_copies(program.main)
        assert busy_code_motion(program.main)
        for args, gold in golds.items():
            assert run_ideal(program, args=args).observable() == gold
        run = run_ideal(program, args=(0, 6))
        assert run.opcode_counts[Opcode.MUL32] == 1
