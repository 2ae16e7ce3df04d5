"""The per-function UD/DU chain cache (``chains_for``).

Passes share one :class:`Chains` per function until the IR changes.
These tests pin down what that sharing must preserve: compiled output
identical to building fresh chains on every request, cached chains equal
to a fresh build after every pass (each pass drops them or splices its
edits into them), every pass reporting the edits it makes, and one build
per unchanged optimizer round.
"""

from __future__ import annotations

import sys

import pytest

from repro.analysis import ud_du
from repro.analysis.ud_du import Chains, chains_for
from repro.core import VARIANTS, compile_ir
from repro.core.config import Placement
from repro.core.convert64 import convert_function
from repro.core.pipeline import GENERAL_PASSES
from repro.ir.clone import clone_program
from repro.ir.printer import format_function, format_program
from repro.machine.model import IA64
from repro.opt import (
    BUCKET_CHAINS,
    PassManager,
    Timing,
    inline_small_functions,
)
from repro.workloads import all_workloads, get_workload

WORKLOADS = [workload.name for workload in all_workloads()]


def _converted(name: str, placement: Placement = Placement.GEN_DEF):
    """A workload as the general optimizer first sees it."""
    program = clone_program(get_workload(name).program())
    inline_small_functions(program)
    for func in program.functions.values():
        convert_function(func, IA64, placement)
    return program


def _optimized(name: str):
    """A workload whose functions are at the optimizer's fixpoint."""
    program = _converted(name)
    manager = PassManager(GENERAL_PASSES)
    for func in program.functions.values():
        for _ in range(10):
            if not manager.run(func):
                break
        else:
            pytest.fail(f"{name}/{func.name}: no fixpoint in 10 rounds")
    return program


def _chain_maps(chains: Chains, func) -> tuple[dict, dict, dict]:
    """UD and DU chains keyed by instruction uid (parameters by name),
    and the definitions of each register."""

    def key(definition):
        if definition.instr is None:
            return definition.reg.name
        return definition.instr.uid

    ud: dict = {}
    du: dict = {}
    for _, instr in func.instructions():
        for index in range(len(instr.srcs)):
            ud[(instr.uid, index)] = [
                key(d) for d in chains.defs_for(instr, index)
            ]
        du[instr.uid] = [(u.instr.uid, u.index)
                         for u in chains.uses_of(instr)]
    for param in func.params:
        du[param.name] = [(u.instr.uid, u.index)
                          for u in chains.uses_of_param(param)]
    regs = {param.name: param for param in func.params}
    for _, instr in func.instructions():
        for reg in (instr.dest, *instr.srcs):
            if reg is not None:
                regs[reg.name] = reg
    defs = {name: [key(d) for d in chains.definitions_of(reg)]
            for name, reg in regs.items()}
    return ud, du, defs


def _build_fresh_every_time(monkeypatch) -> None:
    """Make every ``chains_for`` caller get newly built chains."""
    original = ud_du.chains_for
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        if getattr(module, "chains_for", None) is original:
            monkeypatch.setattr(module, "chains_for", Chains)


@pytest.mark.parametrize("name", WORKLOADS)
def test_shared_chains_compile_like_fresh_chains(name, monkeypatch):
    source = get_workload(name).program()

    def compile_all():
        out = {}
        for variant, config in VARIANTS.items():
            result = compile_ir(source, config)
            out[variant] = (format_program(result.program),
                            result.function_stats)
        return out

    shared = compile_all()
    _build_fresh_every_time(monkeypatch)
    fresh = compile_all()
    for variant in VARIANTS:
        assert shared[variant][0] == fresh[variant][0], variant
        assert shared[variant][1] == fresh[variant][1], variant


@pytest.mark.parametrize("name", ["fp_emu", "db", "huffman"])
def test_cached_chains_after_no_change_round_match_a_fresh_build(name):
    program = _optimized(name)
    manager = PassManager(GENERAL_PASSES)
    for func in program.functions.values():
        cached = chains_for(func)
        assert not manager.run(func)
        assert chains_for(func) is cached, "a no-change round rebuilt"
        assert _chain_maps(cached, func) == _chain_maps(Chains(func), func)


def _snapshot(func) -> tuple[str, list[list[int]]]:
    """The function's text and the identity of every instruction."""
    return (format_function(func),
            [[instr.uid for instr in block.instrs] for block in func.blocks])


@pytest.mark.parametrize("placement", [Placement.GEN_DEF, Placement.GEN_USE])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_pass_reports_its_edits(name, placement):
    program = _converted(name, placement)
    for func in program.functions.values():
        for round_index in range(2):
            for pass_ in GENERAL_PASSES:
                before = _snapshot(func)
                changed = pass_.run(func)
                if _snapshot(func) != before:
                    assert changed, (
                        f"{pass_.name} edited {func.name} (round "
                        f"{round_index + 1}) but reported no change"
                    )


@pytest.mark.parametrize("placement", [Placement.GEN_DEF, Placement.GEN_USE])
@pytest.mark.parametrize("name", WORKLOADS)
def test_cached_chains_stay_exact_through_every_pass(name, placement):
    """Whatever a pass leaves in the cache equals a fresh build: passes
    that splice their edits (folding, algebraic identities, copy
    propagation, DCE) keep the chains exact, every other edit drops
    them."""
    program = _converted(name, placement)
    for func in program.functions.values():
        for round_index in range(2):
            for pass_ in GENERAL_PASSES:
                pass_.run(func)
                cached = func._chains
                if cached is not None:
                    assert _chain_maps(cached, func) == \
                        _chain_maps(Chains(func), func), (
                            f"{pass_.name} left stale chains for "
                            f"{func.name} (round {round_index + 1})"
                        )


@pytest.mark.parametrize("pass_name", ["constant-fold", "copy-prop", "dce"])
def test_splicing_passes_keep_the_cached_chains(pass_name):
    """Folding, copy propagation and DCE edit without a rebuild."""
    (pass_,) = [p for p in GENERAL_PASSES if p.name == pass_name]
    kept = 0
    for name in ("fp_emu", "huffman", "db"):
        for func in _converted(name).functions.values():
            cached = chains_for(func)
            if pass_.run(func):
                assert func._chains is cached
                kept += 1
    assert kept > 0


def test_unchanged_round_builds_chains_once(monkeypatch):
    program = _optimized("fp_emu")
    builds = []

    class CountingChains(Chains):
        def __init__(self, func) -> None:
            builds.append(func.name)
            super().__init__(func)

    monkeypatch.setattr(ud_du, "Chains", CountingChains)
    manager = PassManager(GENERAL_PASSES)
    for func in program.functions.values():
        func.invalidate_cfg()
        builds.clear()
        assert not manager.run(func)
        assert builds == [func.name]


def test_chain_builds_are_charged_to_the_chain_bucket():
    program = _converted("fp_emu")
    timing = Timing()
    manager = PassManager(GENERAL_PASSES, timing)
    built = 0.0
    for func in program.functions.values():
        manager.run_to_fixpoint(func, max_rounds=2)
        built += func.chains_seconds
    assert built > 0
    assert timing.seconds[BUCKET_CHAINS] == pytest.approx(built)
