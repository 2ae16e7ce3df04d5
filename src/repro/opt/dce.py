"""Dead code elimination over DU chains.

Removes side-effect-free instructions whose definitions have no uses,
iterating because removing one use can make its operands' definitions
dead too.

Removing a definition that reaches no use leaves every remaining use's
UD chain as it was, so one set of chains serves all rounds and the
passes after this one: each removal is spliced out of the chains
(:meth:`Chains.remove_leaf`), and the next round looks only at the
definitions that fed the removed instructions.  DCE never removes a
terminator, so the CFG stays as it was too.
"""

from __future__ import annotations

from ..analysis.ud_du import Chains, chains_for
from ..ir.function import Function
from ..ir.instruction import Instr

_MAX_ROUNDS = 50


def eliminate_dead_code(func: Function) -> bool:
    chains = chains_for(func)
    dead = [instr for _, instr in func.instructions()
            if _is_dead(chains, instr)]
    rounds = 0
    removed: set[int] = set()
    while dead and rounds < _MAX_ROUNDS:
        rounds += 1
        feeders: dict[int, Instr] = {}
        for instr in dead:
            for index in range(len(instr.srcs)):
                for definition in chains.defs_for(instr, index):
                    if definition.instr is not None:
                        feeders[definition.instr.uid] = definition.instr
            chains.remove_leaf(instr)
            removed.add(instr.uid)
        dead = [instr for uid, instr in feeders.items()
                if uid not in removed and _is_dead(chains, instr)]
    return bool(rounds)


def _is_dead(chains: Chains, instr: Instr) -> bool:
    return (instr.dest is not None and not instr.has_side_effects
            and not chains.uses_of(instr))
