"""Seeded inputs for the benchmark: J32 sources and the paper-grid draw.

Everything here is a pure function of the seed, so the same seed gives
the same inputs.  The program under test only ever receives the
generated sources (or registry workload names); nothing here calls the
compiler except :func:`ir_size`, which measures a source with the
frontend while the inputs are being prepared.

The program *sets* do not depend on the seed: the ``jit_compile``
population, the ``serve_run`` programs and the ``paper_grid`` draw are
each built from a fixed seed of their own, and the run's seed only
decides the order they run in (and, for ``serve_run``, which client
sends which program).  So
``static_ext``, ``dyn_ext32`` and ``cycles`` repeat exactly across
seeds, and a change that leaves one more extend behind shows.

Sizes are *stratified*: a population of ``n`` programs takes one size
from each of ``n`` equal slices of the log-size range.
"""

from __future__ import annotations

import math
import random

SHAPES = ("chain", "wide", "branchy", "nested", "genprog")

_OPS = ("+", "-", "^", "|", "&")
_CONSTANTS = (1, 3, 7, 255, 4095, 65535, 123457, -99999, 0x7fffffff,
              -2147483648, 0x0fffffff)


def _const(rng: random.Random) -> str:
    return str(rng.choice(_CONSTANTS))


def chain_source(rng: random.Random, statements: int) -> str:
    """A straight-line dependency chain through one variable."""
    lines = ["int main() {", "    int t = 1;", "    long acc = 0L;"]
    for k in range(statements):
        op = rng.choice(_OPS)
        if k % 5 == 4:
            lines.append(f"    acc += (long) t;")
        lines.append(f"    t = (t {op} {rng.randrange(1, 1 << 16)}) "
                     f"& {rng.choice((0xffff, 0xfffff, 0x7fffffff))};")
    lines += ["    sink(t);", "    sink(acc);", "    return t;", "}"]
    return "\n".join(lines)


def wide_source(rng: random.Random, statements: int) -> str:
    """Many live variables updated from each other: wide def-use webs."""
    width = 12
    names = [f"v{i}" for i in range(width)]
    lines = ["int main() {"]
    lines += [f"    int {name} = {_const(rng)};" for name in names]
    lines.append("    long acc = 0L;")
    for k in range(statements):
        dst, a, b = rng.sample(names, 3)
        op = rng.choice(_OPS)
        if k % 7 == 6:
            lines.append(f"    acc += (long) {a};")
        elif k % 7 == 3:
            lines.append(f"    {dst} = (short) ({a} {op} {b});")
        else:
            lines.append(f"    {dst} = {a} {op} ({b} + {_const(rng)});")
    lines += [f"    sink({name});" for name in names]
    lines += ["    sink(acc);", "    return v0;", "}"]
    return "\n".join(lines)


def branchy_source(rng: random.Random, statements: int) -> str:
    """A long sequence of if/else diamonds over a few variables."""
    names = ["a", "b", "c", "d"]
    lines = ["int main() {"]
    lines += [f"    int {name} = {_const(rng)};" for name in names]
    for _ in range(max(1, statements // 3)):
        x, y, z = rng.sample(names, 3)
        cond = rng.choice(("<", ">", "==", "!=", "<=", ">="))
        lines.append(f"    if ({x} {cond} {y}) {{")
        lines.append(f"        {z} = {z} {rng.choice(_OPS)} {_const(rng)};")
        lines.append("    } else {")
        lines.append(f"        {z} = ({z} + {x}) & {rng.choice((255, 65535))};")
        lines.append("    }")
    lines += [f"    sink({name});" for name in names]
    lines += ["    return a;", "}"]
    return "\n".join(lines)


def nested_source(rng: random.Random, statements: int) -> str:
    """Loop nests of depth 2-3 over an array, repeated to reach a size.

    Trip counts stay tiny so the reference interpreter can check the
    compiled program quickly; the compiler's cost does not depend on
    trip counts.
    """
    lines = ["int main() {", "    int[] arr = new int[16];",
             "    int s = 0;", "    long acc = 0L;"]
    emitted = 0
    nest = 0
    while emitted < statements:
        depth = rng.choice((2, 3))
        body = rng.randrange(2, 5)
        pad = "    "
        for level in range(depth):
            var = f"i{nest}_{level}"
            if level % 2 == 0:
                lines.append(f"{pad}for (int {var} = 0; {var} < 2; {var}++) {{")
            else:
                lines.append(f"{pad}for (int {var} = 2; {var} > 0; {var}--) {{")
            pad += "    "
        inner = f"i{nest}_{depth - 1}"
        for _ in range(body):
            op = rng.choice(_OPS)
            lines.append(f"{pad}arr[({inner} + {rng.randrange(16)}) & 15] = "
                         f"(s {op} {inner}) & 65535;")
            lines.append(f"{pad}s = s {op} arr[({inner} + s) & 15];")
        lines.append(f"{pad}acc += (long) s;")
        for level in range(depth):
            pad = pad[:-4]
            lines.append(f"{pad}}}")
        emitted += depth + 2 * body + 1
        nest += 1
    lines += ["    for (int k = 0; k < 16; k++) { sink(arr[k]); }",
              "    sink(s);", "    sink(acc);", "    return s;", "}"]
    return "\n".join(lines)


def genprog_source(rng: random.Random, statements: int) -> str:
    """A :class:`repro.testing.ProgramGenerator` fuzz program.

    Loops are not nested (``max_loops=1``): nested random trip counts
    make a program's dynamic counts vary by orders of magnitude, which
    would dominate the population's ``dyn_ext32`` and ``cycles``.
    """
    from repro.testing import ProgramGenerator

    generator = ProgramGenerator(rng.randrange(1 << 30), max_loops=1,
                                 max_statements=max(3, statements))
    return generator.generate()


_BUILDERS = {
    "chain": chain_source,
    "wide": wide_source,
    "branchy": branchy_source,
    "nested": nested_source,
    "genprog": genprog_source,
}


def ir_size(source: str) -> int:
    """IR instructions the frontend produces for ``source``."""
    from repro.frontend import compile_source

    program = compile_source(source, "sized")
    return sum(1 for func in program.functions.values()
               for _ in func.instructions())


def sized_source(shape: str, rng: random.Random, target: int,
                 *, tolerance: float = 0.2) -> tuple[str, int]:
    """A ``shape`` program whose IR size is within ``tolerance`` of
    ``target`` (closest of a few attempts), and that size."""
    build = _BUILDERS[shape]
    statements = max(3, target // 6)
    best: tuple[str, int] | None = None
    for _ in range(12):
        source = build(rng, statements)
        size = ir_size(source)
        if best is None or abs(size - target) < abs(best[1] - target):
            best = (source, size)
        if abs(size - target) <= tolerance * target:
            break
        statements = max(3, round(statements * target / max(size, 1)))
    assert best is not None
    return best


def stratified_sizes(rng: random.Random, count: int, low: int,
                     high: int) -> list[int]:
    """``count`` log-uniform sizes, one from each equal log-slice."""
    span = math.log(high) - math.log(low)
    return [
        round(math.exp(math.log(low) + span * (i + rng.random()) / count))
        for i in range(count)
    ]


def population(rng: random.Random, count: int, low: int, high: int,
               prefix: str = "", *, measure: bool = True) -> list[dict]:
    """``count`` programs over stratified sizes, shapes dealt round-robin
    by size slot, so that every shape spans the whole size range the
    same way for every seed.  With ``measure=False`` a size is only a
    statement budget (``size // 6``) and is not checked with the
    frontend, which is much faster."""
    programs = []
    for slot, target in enumerate(stratified_sizes(rng, count, low, high)):
        shape = SHAPES[slot % len(SHAPES)]
        if measure:
            source, size = sized_source(shape, rng, target)
        else:
            source, size = _BUILDERS[shape](rng, max(3, target // 6)), None
        programs.append({"name": f"{prefix}{shape}_{slot}", "shape": shape,
                         "source": source, "instrs": size})
    return programs


#: The seed the program sets are built from (see the module docstring).
INPUT_SEED = 1


def jit_population(seed: int, count: int, low: int,
                   high: int) -> list[dict]:
    """The fixed ``jit_compile`` population, in a seeded compile order."""
    programs = population(random.Random(f"jit:{INPUT_SEED}"), count, low,
                          high)
    random.Random(f"jit-order:{seed}").shuffle(programs)
    return programs


def serve_programs(count: int, low: int = 40, high: int = 160
                   ) -> tuple[list[dict], dict]:
    """The fixed set of ``count`` small programs and a warm-up program,
    all sources distinct, so that two requests share a cache entry only
    if they send the same program."""
    rng = random.Random(f"serve:{INPUT_SEED}")
    seen: set[str] = set()

    def distinct(count: int, prefix: str) -> list[dict]:
        made = population(rng, count, low, high, prefix, measure=False)
        for item in made:
            while item["source"] in seen:
                item["source"] = _BUILDERS[item["shape"]](rng, low // 6)
            seen.add(item["source"])
        return made

    made = distinct(count, "s_")
    return made, distinct(1, "warmup_")[0]


#: The paper-grid draw: one workload from each suite, one compile-heavy
#: (fp_emu, jBYTEmark) and one execute-heavy (compress, SPECjvm98).
#: Together they cost about 7 s of the 54 s full grid, so a 20 s run
#: measures three rounds.
PAPER_DRAW = ("fp_emu", "compress")


def paper_order(seed: int) -> list[str]:
    """The paper-grid draw in a seeded order.

    The set itself does not depend on the seed: any other draw of the
    17 workloads moves the deterministic counts (``dyn_ext32`` ranges
    from 0 to 5,717 per workload), so the seed only decides the order
    the workloads run in.
    """
    order = list(PAPER_DRAW)
    random.Random(f"paper:{seed}").shuffle(order)
    return order
