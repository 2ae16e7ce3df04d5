"""Layer tracing from outside the program: wrap public entry points.

:func:`install` replaces each layer's public entry points with wrappers
that charge their *self time* (duration minus the time of wrapped calls
they make) to a named layer in a :class:`Ledger`.  Nothing inside
``src/`` changes: functions are swapped in every ``repro`` module that
imports them, methods on their classes, and the optimizer's pass table
in place.  :meth:`Installation.uninstall` restores the originals.

Self time follows the callee, not the caller: a ``Chains`` build inside
an ``opt`` pass is charged to ``analysis.chains`` wherever it happens.
Stacks are per thread, so a multi-threaded server's layers add up in
thread-seconds.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable


class Ledger:
    """Per-layer self seconds, call counts and event counts."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[tuple[dict, dict]] = []
        self._lock = threading.Lock()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], defaultdict(float), defaultdict(int))
            self._local.state = state
            with self._lock:
                self._threads.append((state[1], state[2]))
        return state

    def count(self, name: str, amount: int = 1) -> None:
        self._state()[2][name] += amount

    def wrap(self, layer: str, fn: Callable,
             on_result: Callable | None = None) -> Callable:
        """``fn`` with its self time charged to ``layer``.

        ``on_result(ledger, result)`` runs after the clock stops, so
        counting results costs the caller, not the layer.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, layer: str):
        """Charge the body's self time and one call to ``layer``."""
        stack, seconds, counts = self._state()
        frame = [0.0]  # seconds spent in nested spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            seconds[layer] += elapsed - frame[0]
            counts[layer + ".calls"] += 1

    def snapshot(self) -> tuple[dict[str, float], dict[str, int]]:
        """Seconds and counts summed over every thread so far."""
        seconds: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        with self._lock:
            threads = list(self._threads)
        for thread_seconds, thread_counts in threads:
            for key, value in list(thread_seconds.items()):
                seconds[key] += value
            for key, value in list(thread_counts.items()):
                counts[key] += value
        return dict(seconds), dict(counts)


# -- what gets wrapped --------------------------------------------------------


def _instrs(ledger: Ledger, program) -> None:
    ledger.count("frontend.instrs", sum(
        1 for func in program.functions.values() for _ in func.instructions()
    ))


def _changed(ledger: Ledger, result) -> None:
    ledger.count("opt.runs")
    if result:
        ledger.count("opt.changed")


def _candidates(ledger: Ledger, result) -> None:
    ledger.count("core.candidates", len(result))


def _eliminated(ledger: Ledger, result) -> None:
    if result:
        ledger.count("core.eliminated")


def _steps(ledger: Ledger, result) -> None:
    ledger.count("interp.steps", result.steps)


def _cache_get(ledger: Ledger, result) -> None:
    ledger.count("driver.cache.lookups")
    if result is not None:
        ledger.count("driver.cache.hits")


def _function_targets():
    """(module, name, layer, on_result) for every wrapped function."""
    from repro.analysis import dominators, loops, reaching, ud_du, value_range
    from repro.core import (
        analyze,
        convert64,
        first_algorithm,
        insertion,
        ordering,
        pde_insertion,
        pipeline,
    )
    from repro.driver import batch, cache, fingerprint
    from repro.frontend import lower
    from repro.harness import runner
    from repro.interp import codegen, engine, profiler, translate
    from repro.machine import costs
    from repro.opt import inline

    functions = [
        (lower, "compile_source", "frontend", _instrs),
        (inline, "inline_small_functions", "opt.inline", _changed),
        (pipeline, "compile_ir", "core.pipeline", None),
        (convert64, "convert_function", "core.convert64", None),
        (insertion, "insert_dummy_markers", "core.insertion", None),
        (insertion, "insert_before_requiring_uses", "core.insertion", None),
        (insertion, "remove_dummy_markers", "core.insertion", None),
        (pde_insertion, "run_pde_insertion", "core.insertion", None),
        (ordering, "order_candidates", "core.ordering", _candidates),
        (first_algorithm, "run_first_algorithm", "core.first_algorithm",
         None),
        (costs, "count_cycles", "machine.cycles", None),
        (engine, "execute", "interp.execute", _steps),
        (translate, "translate_function", "interp.translate", None),
        (codegen, "compile_generated", "interp.translate", None),
        (profiler, "collect_branch_profiles", "interp.profile", None),
        (fingerprint, "fingerprint_program", "driver.fingerprint", None),
        (fingerprint, "cache_key", "driver.fingerprint", None),
        (runner, "measure_workload", "harness", None),
    ]
    methods = [
        (ud_du.Chains, "__init__", "analysis.chains", None),
        (reaching.ReachingDefinitions, "__init__", "analysis.reaching", None),
        (dominators.DominatorTree, "__init__", "analysis.loops", None),
        (loops.LoopForest, "__init__", "analysis.loops", None),
        (value_range.ValueRanges, "__init__", "analysis.ranges", None),
        (value_range.ValueRanges, "range_of_use", "analysis.ranges", None),
        (value_range.ValueRanges, "range_of_def", "analysis.ranges", None),
        (value_range.ValueRanges, "const_of_use", "analysis.ranges", None),
        (analyze.Eliminator, "try_eliminate", "core.elimination",
         _eliminated),
        (batch.BatchCompiler, "compile_one", "driver", None),
        (batch.BatchCompiler, "compile_batch", "driver", None),
        (cache.CompileCache, "get", "driver.cache.get", _cache_get),
        (cache.CompileCache, "put", "driver.cache.put", None),
    ]
    return functions, methods


class Installation:
    """Wrappers currently in place, and how to take them out."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def replace(self, owner, name: str, value) -> None:
        original = getattr(owner, name)
        self._undo.append(lambda: setattr(owner, name, original))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(ledger: Ledger) -> Installation:
    """Wrap every layer's entry points; returns the undo handle."""
    # Every module that imports a wrapped function must already be
    # loaded, so that its own reference to the function is swapped too.
    import repro.api
    import repro.cli
    import repro.serve  # noqa: F401
    from repro.core import pipeline
    from repro.opt.pass_manager import Pass

    done = Installation()
    functions, methods = _function_targets()
    modules = [m for name, m in list(sys.modules.items())
               if name == "repro" or name.startswith("repro.")]
    for module, name, layer, on_result in functions:
        original = getattr(module, name)
        wrapped = ledger.wrap(layer, original, on_result)
        for other in modules:
            for attr, value in list(vars(other).items()):
                if value is original:
                    done.replace(other, attr, wrapped)
    for cls, name, layer, on_result in methods:
        done.replace(cls, name,
                     ledger.wrap(layer, getattr(cls, name), on_result))
    # The general optimizer reads its pass table at every compile, so
    # swapping the table's entries wraps each pass under its own name.
    passes = pipeline.GENERAL_PASSES
    original_passes = list(passes)
    done._undo.append(lambda: passes.__setitem__(slice(None),
                                                 original_passes))
    passes[:] = [
        Pass(entry.name,
             ledger.wrap(f"opt.{entry.name}", entry.run, _changed),
             entry.bucket)
        for entry in original_passes
    ]
    return done


# -- turning a ledger into per-layer metrics -----------------------------------

OPT_PASSES = ("inline", "constant-fold", "simplify", "copy-prop", "gcse",
              "licm", "copy-prop-cleanup", "dce")

#: Layers whose self seconds are reported, metric name -> ledger layer.
TIMED_LAYERS = {
    "frontend.s": "frontend",
    **{f"opt.{name}.s": f"opt.{name}" for name in OPT_PASSES},
    "analysis.chains.s": "analysis.chains",
    "analysis.reaching.s": "analysis.reaching",
    "analysis.loops.s": "analysis.loops",
    "analysis.ranges.s": "analysis.ranges",
    "core.pipeline.s": "core.pipeline",
    "core.convert64.s": "core.convert64",
    "core.insertion.s": "core.insertion",
    "core.ordering.s": "core.ordering",
    "core.elimination.s": "core.elimination",
    "core.first_algorithm.s": "core.first_algorithm",
    "machine.cycles.s": "machine.cycles",
    "interp.execute.s": "interp.execute",
    "interp.translate.s": "interp.translate",
    "interp.profile.s": "interp.profile",
    "driver.self.s": "driver",
    "driver.fingerprint.s": "driver.fingerprint",
    "driver.cache.get.s": "driver.cache.get",
    "driver.cache.put.s": "driver.cache.put",
    "harness.self.s": "harness",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(seconds: dict[str, float], counts: dict[str, int],
                  translate_stats: dict[str, int]) -> dict[str, float]:
    """Named per-layer metrics from one ledger snapshot."""
    out: dict[str, float] = {
        name: seconds.get(layer, 0.0) for name, layer in TIMED_LAYERS.items()
    }
    for name in OPT_PASSES:
        out[f"opt.{name}.calls"] = counts.get(f"opt.{name}.calls", 0)
    out["opt.changed_ratio"] = _ratio(counts.get("opt.changed", 0),
                                      counts.get("opt.runs", 0))
    out["frontend.instrs"] = counts.get("frontend.instrs", 0)
    out["analysis.chains.builds"] = counts.get("analysis.chains.calls", 0)
    out["core.candidates"] = counts.get("core.candidates", 0)
    out["core.eliminated"] = counts.get("core.eliminated", 0)
    out["core.elim_ratio"] = _ratio(out["core.eliminated"],
                                    out["core.candidates"])
    out["interp.steps"] = counts.get("interp.steps", 0)
    out["interp.translate.calls"] = counts.get("interp.translate.calls", 0)
    hits = translate_stats.get("hits", 0)
    out["interp.translate.hit_ratio"] = _ratio(
        hits, hits + translate_stats.get("misses", 0))
    out["driver.cache.hit_ratio"] = _ratio(
        counts.get("driver.cache.hits", 0),
        counts.get("driver.cache.lookups", 0))
    return out


#: Counts that must repeat exactly between two passes over one input.
DETERMINISTIC_COUNTS = ("analysis.chains.builds", "core.eliminated",
                        "interp.steps")


def translate_cache_counts() -> dict[str, int]:
    """Hit/miss totals of the process-wide translation caches."""
    from repro.interp import default_codegen_cache, default_translation_cache

    closure = default_translation_cache().stats()
    codegen = default_codegen_cache().stats()
    return {
        "hits": closure["translate.hits"] + codegen["translate.codegen.hits"],
        "misses": (closure["translate.misses"]
                   + codegen["translate.codegen.misses"]),
    }


def reset_translate_caches() -> None:
    """Empty the process-wide translation caches (a cold start)."""
    from repro.interp import default_codegen_cache, default_translation_cache

    default_translation_cache().clear()
    default_codegen_cache().clear()
