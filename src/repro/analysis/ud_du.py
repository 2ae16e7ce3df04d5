"""UD/DU chains [Aho-Sethi-Ullman], the paper's workhorse structure.

``EliminateOneExtend`` walks DU chains ("all instructions that use the
destination operand of EXT") and UD chains ("all instructions that
define the source operand of EXT"); ``AnalyzeARRAY`` recurses over both.

The chains are built once from reaching definitions and shared: every
pass asks :func:`chains_for`, which memoizes one :class:`Chains` on the
function until ``Function.invalidate_cfg()`` drops it.  Every edit to
the IR is followed by that call, except the rewrites that keep the
chains exact: a constant fold or an algebraic identity writes
``r = op'(..)`` over ``r = op(..)``, reading no register the old
instruction did not read (:meth:`Chains.replace`), copy propagation
forwards a copy of a single-definition register
(:meth:`Chains.forward_copy`), and dead-code elimination removes
definitions that reach no use (:meth:`Chains.remove_leaf`).

When the eliminator removes a same-register extension ``r = extend(r)``
it calls :meth:`Chains.bypass_and_remove`, which splices the extension
out of the chains *conservatively* (former users of the extension now
see every definition that reached the extension).  The splice may
overapproximate reaching definitions along paths that never passed
through the removed instruction; overapproximation only makes the
analyses more conservative, never unsound.  Chains edited that way are
taken out of the cache first (:func:`take_chains`).
"""

from __future__ import annotations

import bisect
import dataclasses
import time
from dataclasses import dataclass

from ..ir.block import Block
from ..ir.function import Function
from ..ir.instruction import Instr, VReg
from .dataflow import bit_indices
from .reaching import Definition, ReachingDefinitions


@dataclass(frozen=True)
class Use:
    """One use site: operand ``index`` of ``instr``."""

    instr: Instr
    index: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<use {self.instr}@{self.index}>"


class Chains:
    """UD and DU chains for one function."""

    def __init__(self, func: Function) -> None:
        self.func = func
        self.reaching = ReachingDefinitions(func)
        self.definitions = self.reaching.definitions
        #: use (instr uid, operand index) -> definitions reaching it
        self._ud: dict[tuple[int, int], list[Definition]] = {}
        #: definition index -> uses it reaches
        self._du: dict[int, list[Use]] = {
            d.index: [] for d in self.definitions
        }
        self._block_of_instr: dict[int, Block] = {}
        #: instr uid -> position in layout order (orders the DU chains)
        self._rank: dict[int, int] = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        reaching = self.reaching
        for block in self.func.blocks:
            live = reaching.reaching_in(block.label)
            for instr in block.instrs:
                self._block_of_instr[instr.uid] = block
                self._rank[instr.uid] = len(self._rank)
                for operand_index, src in enumerate(instr.srcs):
                    mask = reaching.defs_of_reg_bits(src)
                    def_indices = bit_indices(live & mask)
                    defs = [self.definitions[i] for i in def_indices]
                    self._ud[(instr.uid, operand_index)] = defs
                    use = Use(instr, operand_index)
                    for definition in defs:
                        self._du[definition.index].append(use)
                if instr.dest is not None:
                    definition = reaching.def_of_instr[instr.uid]
                    same_reg = reaching.defs_of_reg_bits(instr.dest)
                    live = (live & ~same_reg) | (1 << definition.index)

    # -- queries ---------------------------------------------------------------

    def defs_for(self, instr: Instr, operand_index: int) -> list[Definition]:
        """UD chain: definitions reaching operand ``operand_index``."""
        return self._ud.get((instr.uid, operand_index), [])

    def uses_of(self, instr: Instr) -> list[Use]:
        """DU chain: uses reached by the definition made by ``instr``."""
        definition = self.reaching.def_of_instr.get(instr.uid)
        if definition is None:
            return []
        return self._du[definition.index]

    def definitions_of(self, reg: VReg) -> list[Definition]:
        """Every definition of ``reg`` in the function, in index order."""
        bits = self.reaching.defs_of_reg_bits(reg)
        return [self.definitions[i] for i in bit_indices(bits)]

    def uses_of_param(self, reg: VReg) -> list[Use]:
        for definition in self.definitions:
            if definition.is_param and definition.reg.name == reg.name:
                return self._du[definition.index]
        return []

    def definition_of(self, instr: Instr) -> Definition | None:
        return self.reaching.def_of_instr.get(instr.uid)

    def block_of(self, instr: Instr) -> Block:
        return self._block_of_instr[instr.uid]

    # -- incremental update ------------------------------------------------------

    def bypass_and_remove(self, instr: Instr) -> None:
        """Remove a same-register pass-through ``r = op(r)`` instruction
        (an ``extend`` or dummy marker) and splice the chains around it.

        Every use that saw this instruction's definition now also sees
        the definitions that reached the instruction's source operand,
        and vice versa.
        """
        if not (instr.dest is not None and len(instr.srcs) == 1
                and instr.dest.name == instr.srcs[0].name):
            raise ValueError(f"not a same-register pass-through: {instr}")

        definition = self.reaching.def_of_instr[instr.uid]
        upstream = list(self._ud.get((instr.uid, 0), []))
        # The definition may reach the instruction's own operand around
        # a loop back edge; that self-use vanishes with the instruction
        # and must not be re-attached to the upstream definitions.
        downstream = [
            use for use in self._du[definition.index]
            if use.instr is not instr
        ]

        for use in downstream:
            chain = self._ud[(use.instr.uid, use.index)]
            chain[:] = [d for d in chain if d is not definition]
            for up_def in upstream:
                if up_def not in chain:
                    chain.append(up_def)

        for up_def in upstream:
            du_chain = self._du[up_def.index]
            du_chain[:] = [u for u in du_chain if u.instr.uid != instr.uid]
            for use in downstream:
                if use not in du_chain:
                    du_chain.append(use)

        self._du[definition.index] = []
        self._ud.pop((instr.uid, 0), None)

        block = self._block_of_instr.pop(instr.uid)
        block.remove(instr)

    def remove_leaf(self, instr: Instr) -> None:
        """Remove an instruction whose definition has no remaining uses
        (dead code): its operands leave their definitions' DU chains,
        and its definition is forgotten.

        A definition that reaches no use kills nothing any use sees, so
        no other UD chain changes: the chains stay equal to a fresh
        build.  (The removed definition keeps its slot in
        :attr:`definitions`, which is indexed by definition index;
        :meth:`definitions_of` no longer lists it.)
        """
        for operand_index in range(len(instr.srcs)):
            for up_def in self._ud.pop((instr.uid, operand_index), []):
                du_chain = self._du[up_def.index]
                du_chain[:] = [u for u in du_chain if u.instr is not instr]
        definition = self.reaching.def_of_instr.get(instr.uid)
        if definition is not None:
            del self._du[definition.index]
            self.reaching.forget(definition)
        block = self._block_of_instr.pop(instr.uid)
        block.remove(instr)

    def replace(self, old: Instr, new: Instr) -> None:
        """Splice ``new`` into the chains in place of ``old``, after the
        caller has put ``new`` at ``old``'s position in its block.

        ``new`` must define the same register as ``old`` and read only
        registers ``old`` read (a constant fold, an algebraic identity).
        Then no reaching definition in the function changes, and the
        chains stay equal to a fresh build, list order included.
        """
        if old.dest is None or new.dest is None \
                or new.dest.name != old.dest.name:
            raise ValueError(f"{new} does not define what {old} defined")
        reaching_reg: dict[str, list[Definition]] = {}
        for operand_index, src in enumerate(old.srcs):
            reaching_reg[src.name] = self._ud.pop((old.uid, operand_index))
        for operand_index, src in enumerate(new.srcs):
            if src.name not in reaching_reg:
                raise ValueError(f"{new} reads {src}, which {old} did not")
            self._ud[(new.uid, operand_index)] = list(reaching_reg[src.name])

        # Each upstream DU chain gets the new uses where the old ones
        # were: uses are listed in program order, operand by operand.
        upstream = {d.index for defs in reaching_reg.values() for d in defs}
        for def_index in sorted(upstream):
            chain = self._du[def_index]
            at = next(i for i, u in enumerate(chain) if u.instr is old)
            kept = [u for u in chain if u.instr is not old]
            kept[at:at] = [
                Use(new, operand_index)
                for operand_index, src in enumerate(new.srcs)
                if any(d.index == def_index for d in reaching_reg[src.name])
            ]
            self._du[def_index] = kept

        definition = self.reaching.def_of_instr.pop(old.uid)
        renewed = dataclasses.replace(definition, instr=new)
        self.definitions[definition.index] = renewed
        self.reaching.def_of_instr[new.uid] = renewed
        for use in self._du[definition.index]:
            chain = self._ud[(use.instr.uid, use.index)]
            chain[chain.index(definition)] = renewed
        self._block_of_instr[new.uid] = self._block_of_instr.pop(old.uid)
        self._rank[new.uid] = self._rank.pop(old.uid)

    def forward_copy(self, instr: Instr, operand_index: int,
                     copy: Instr) -> bool:
        """Splice in copy propagation: operand ``operand_index`` of
        ``instr``, which only ``copy`` (``r = mov s``) reached, now reads
        ``s``.

        Exact when ``s`` has one definition in the function and it
        reaches ``copy``: it then reaches ``instr`` too, and nothing else
        does.  Returns False, leaving the chains alone, otherwise.
        """
        source = self._ud[(copy.uid, 0)]
        if len(source) != 1 or \
                self.reaching.defs_of_reg_bits(copy.srcs[0]).bit_count() != 1:
            return False
        use = Use(instr, operand_index)
        (copied,) = self._ud[(instr.uid, operand_index)]
        self._du[copied.index].remove(use)
        self._ud[(instr.uid, operand_index)] = list(source)
        bisect.insort(self._du[source[0].index], use,
                      key=lambda u: (self._rank[u.instr.uid], u.index))
        return True


# -- the per-function cache ----------------------------------------------------


def chains_for(func: Function) -> Chains:
    """The function's chains: memoized, built only when none is cached
    (``Function.invalidate_cfg()`` drops them).

    Build time accumulates in ``func.chains_seconds``, so callers can
    charge it to Table 3's chain bucket wherever the build happens.
    """
    chains = func._chains
    if chains is None:
        start = time.perf_counter()
        chains = func._chains = Chains(func)
        func.chains_seconds += time.perf_counter() - start
    return chains


def take_chains(func: Function) -> Chains:
    """Chains the caller may edit in place: the cached ones, removed from
    the cache, or a fresh build."""
    chains = chains_for(func)
    func._chains = None
    return chains
