"""Table 3: breakdown of JIT compilation time.

The paper reports sign-extension optimizations at 0.11% of compile time
and UD/DU chain creation at 2.92% on average.  Our passes run in Python
(and the general optimizer is comparatively lean), so the absolute
proportions differ; what must reproduce is the *structure*: "others"
(the general optimizer and the 64-bit conversion) takes more than half
of compile time, more than either the sign-extension phase or chain
creation.  Every chain build is charged to the chain bucket, including
the builds the general optimizer's passes make through the shared
per-function cache, and none of them to "others".
"""

import statistics

from repro.core import VARIANTS, compile_ir
from repro.harness import format_timing_table
from repro.opt.pass_manager import BUCKET_CHAINS, BUCKET_OTHERS, BUCKET_SIGN_EXT
from repro.workloads import get_workload

from conftest import write_artifact


def test_regenerate_table3(jbytemark_results, specjvm98_results, benchmark):
    program = get_workload("db").program()
    benchmark.pedantic(
        compile_ir,
        args=(program, VARIANTS["new algorithm (all)"]),
        rounds=3,
        iterations=1,
    )

    results = specjvm98_results + jbytemark_results
    text = format_timing_table(results)
    write_artifact("table3.txt", text)

    sign_ext = []
    chains = []
    others = []
    for result in results:
        timing = result.cells["new algorithm (all)"].timing
        sign_ext.append(timing.fraction(BUCKET_SIGN_EXT))
        chains.append(timing.fraction(BUCKET_CHAINS))
        others.append(timing.fraction(BUCKET_OTHERS))

    # Structure checks: all three buckets are populated, they sum to 1,
    # and "others" dominates as in the paper (96.97% average there).
    for a, b, c in zip(sign_ext, chains, others):
        assert a > 0 and b > 0 and c > 0
        assert abs(a + b + c - 1.0) < 1e-9
    assert statistics.mean(others) > 0.5
    assert statistics.mean(others) > statistics.mean(sign_ext)
    assert statistics.mean(others) > statistics.mean(chains)
