"""The three benchmark workloads.

Each workload builds its inputs from the seed in :meth:`prepare`, runs
one *pass* of timed work in :meth:`run_pass` (optionally with the layer
ledger installed), computes reference outputs in :meth:`expected` and
compares a pass against them in :meth:`check`.  The reference is always
the unoptimized program on the reference interpreter, never the
compiler or engine under test.

A pass is a whole number of *rounds*; a round is the workload's fixed
unit of work and starts from the same cold state every time.  Below
one nominal round time, ``--seconds`` shrinks the round's inputs
instead (see :attr:`Workload.scale`), which is how the self-tests run
small.
"""

from __future__ import annotations

import gc
import json
import math
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import calib
import layers
import programs
import serving

DEFAULT_VARIANT = "new algorithm (all)"


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (1..99) by the Harrell-Davis estimator.

    It is a weighted mean of all order statistics, the ``i``-th weighted
    by the mass the Beta(``(n+1)p``, ``(n+1)(1-p)``) distribution puts on
    ``[(i-1)/n, i/n]``.  An interpolated percentile reads one or two
    samples, and jumps when it sits on a gap between the costs of
    neighbouring programs (``jit_compile``'s p50 moved between 91, 97
    and 104 ms from seed to seed); this one moves smoothly.
    """
    if len(values) < 2:
        return values[0] if values else 0.0
    ordered = sorted(values)
    n = len(ordered)
    p = q / 100
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 16
    weights = []
    for i in range(n):
        # Midpoint rule over the order statistic's slice of [0, 1].
        xs = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(
            math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                     - log_beta)
            for x in xs))
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, ordered)) / total


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(max(y, 1e-9)) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class PassResult:
    """What one pass measured and produced.

    Times are in reference seconds (see :mod:`calib`) unless named raw.
    """

    round_walls: list[float]
    raw_round_walls: list[float]
    #: latency samples of the workload's headline operation class
    latencies_ms: list[float]
    operations: int
    #: the pass's median unit time over the reference unit time
    slowdown: float
    outputs: list = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: broken assumptions of the plan (not failed operations)
    guards: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: per-layer values measured outside the ledger (serve stages ...)
    extra: dict[str, float] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    translate: dict[str, int] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return statistics.median(self.round_walls)

    @property
    def raw_wall_s(self) -> float:
        return statistics.median(self.raw_round_walls)


@dataclass
class CheckResult:
    attempted: int
    failed: int
    det: dict[str, float]
    messages: list[str]


class Workload:
    name = ""
    #: seconds one round takes on the reference host (see README.md)
    ROUND_S = 1.0

    def __init__(self, seed: int, seconds: float, *, src: Path,
                 workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.src = src
        self.workdir = workdir
        #: run exactly one round per pass (traced runs compare passes)
        self.single_round = False

    @property
    def scale(self) -> float:
        """Share of a full round's inputs to use: 1 from one nominal
        round time up, less below it."""
        return min(1.0, self.seconds / self.ROUND_S)

    def prepare(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever :meth:`prepare` or a pass started."""

    def rounds(self) -> int:
        """Rounds in a pass: as many as fit ``seconds`` at the nominal
        round time, so that the sample count does not depend on how
        fast this host happens to be; one in traced runs."""
        if self.single_round:
            return 1
        return max(1, round(self.seconds / self.ROUND_S))

    def _rounds(self, one_round, ledger: layers.Ledger | None,
                probe: calib.SpeedProbe) -> None:
        """Run :meth:`rounds` rounds with ``probe`` sampling the host's
        speed."""
        for _ in range(self.rounds()):
            gc.collect()
            with probe.sampling():
                if ledger is None:
                    one_round()
                else:
                    with layers.install(ledger), ledger.span("bench"):
                        one_round()

    @staticmethod
    def _sequential(spans: list[tuple[int, float, float]], rounds: int,
                    probe: calib.SpeedProbe, **fields) -> PassResult:
        """A pass of back-to-back operations ``(round, start, end)``:
        a round's time is the sum of its operations' times."""
        ref = [probe.reference_s(end - start, start, end)
               for _, start, end in spans]
        walls = [0.0] * rounds
        raw = [0.0] * rounds
        for (index, start, end), seconds in zip(spans, ref):
            walls[index] += seconds
            raw[index] += end - start
        return PassResult(round_walls=walls, raw_round_walls=raw,
                          latencies_ms=[r * 1000 for r in ref],
                          operations=len(spans), slowdown=probe.slowdown(),
                          peak_rss_mb=peak_rss_self_mb(), **fields)


class JitCompile(Workload):
    """Compile a seeded population once per round with ``api.compile``."""

    name = "jit_compile"
    ROUND_S = 10.5

    POPULATION = 80

    def prepare(self) -> None:
        count = max(5, round(self.POPULATION * self.scale))
        self.population = programs.jit_population(self.seed, count, 80, 400)

    def run_pass(self, ledger: layers.Ledger | None = None) -> PassResult:
        from repro import api

        population = self.population
        probe = calib.SpeedProbe()
        spans: list[tuple[int, float, float]] = []
        results: list[list] = []
        failures: list[str] = []

        def one_round() -> None:
            compiled = []
            try:
                for item in population:
                    # Earlier compiles' outputs stay alive for the check;
                    # frozen, they are not traversed by the collections
                    # that this compile triggers.
                    gc.collect()
                    gc.freeze()
                    start = time.perf_counter()
                    try:
                        result = api.compile(item["source"])
                    except Exception as exc:  # a failed operation
                        result = None
                        failures.append(f"{item['name']}: {exc!r}")
                    spans.append((len(results), start, time.perf_counter()))
                    compiled.append(result)
            finally:
                gc.unfreeze()
            results.append(compiled)

        self._rounds(one_round, ledger, probe)
        out = self._sequential(spans, self.rounds(), probe, outputs=results,
                               failures=failures)
        per_program = [out.latencies_ms[i::len(population)]
                       for i in range(len(population))]
        out.extra["compile.scaling_exp"] = loglog_slope([
            (item["instrs"], statistics.median(samples))
            for item, samples in zip(population, per_program)
        ])
        return out

    def expected(self) -> dict[str, tuple]:
        from repro.frontend import compile_source
        from repro.interp import Interpreter

        return {
            item["name"]: Interpreter(compile_source(item["source"], "ref"),
                                      mode="ideal").run().observable()
            for item in self.population
        }

    def check(self, result: PassResult, expected: dict) -> CheckResult:
        from repro.interp import Interpreter, SimError
        from repro.machine.costs import count_cycles
        from repro.machine.model import IA64

        messages = list(result.failures)
        failed = len(result.failures)
        det_rounds = []
        for compiled in result.outputs:
            det = {"static_ext": 0, "dyn_ext32": 0, "cycles": 0.0}
            for item, outcome in zip(self.population, compiled):
                if outcome is None:
                    continue
                try:
                    run = Interpreter(outcome.program, traits=IA64).run()
                except SimError as exc:
                    failed += 1
                    messages.append(f"{item['name']}: trapped: {exc}")
                    continue
                if run.observable() != expected[item["name"]]:
                    failed += 1
                    messages.append(
                        f"{item['name']}: output {run.observable()} != "
                        f"reference {expected[item['name']]}")
                det["static_ext"] += outcome.static_extend_count
                det["dyn_ext32"] += run.extends32
                det["cycles"] += count_cycles(outcome.program, run,
                                              IA64).total
            det_rounds.append(det)
        return _combine(result, det_rounds, failed, messages)


class PaperGrid(Workload):
    """``repro.api.bench`` over the paper-grid draw, all 12 variants.

    The latency class is the compile time of one cell of the
    compile-heavy workload (:attr:`LATENCY_CLASS`), as the compiler's
    own ``Timing`` reports it: 12 cells of one program per round, which
    differ only in the sign-extension variant.  Cells of different
    workloads are never pooled (their compile times differ threefold).
    """

    name = "paper_grid"
    ROUND_S = 7.0
    LATENCY_CLASS = "fp_emu"

    def prepare(self) -> None:
        from repro.core import VARIANTS

        self.order = programs.paper_order(self.seed)
        keep = max(2, round(len(VARIANTS) * self.scale))
        names = ["baseline", DEFAULT_VARIANT]
        names += [name for name in VARIANTS if name not in names]
        self.variants = {name: VARIANTS[name]
                         for name in sorted(names[:keep],
                                            key=list(VARIANTS).index)}

    def run_pass(self, ledger: layers.Ledger | None = None) -> PassResult:
        from repro import api

        probe = calib.SpeedProbe()
        spans: list[tuple[int, float, float]] = []
        results: list[dict] = []
        failures: list[str] = []
        cells: list[tuple[float, float, float]] = []

        def one_round() -> None:
            layers.reset_translate_caches()
            suites = {}
            for name in self.order:
                # The driver api.bench would open for itself, with its
                # one batch timed, so that each cell's compile can be
                # placed in time (cells compile back to back).
                driver = api.driver_from_options(api.CompileOptions())
                batches: list[tuple[float, float]] = []
                compile_batch = driver.compile_batch

                def timed_batch(jobs, compile_batch=compile_batch,
                                batches=batches):
                    begin = time.perf_counter()
                    compiled = compile_batch(jobs)
                    batches.append((begin, time.perf_counter()))
                    return compiled

                driver.compile_batch = timed_batch
                start = time.perf_counter()
                try:
                    with driver:
                        suites[name] = api.bench([name], self.variants,
                                                 driver=driver)
                except Exception as exc:  # reported as a failed operation
                    failures.append(f"{name}: {exc!r}")
                spans.append((len(results), start, time.perf_counter()))
                if name == self.LATENCY_CLASS and name in suites:
                    cells.extend(_placed(
                        [cell.timing.total() for cell in
                         suites[name].workload(name).cells.values()],
                        *batches[0]))
            results.append(suites)

        self._rounds(one_round, ledger, probe)
        # The caches restart at every round, so their counters are the
        # last round's alone.
        out = self._sequential(spans, self.rounds(), probe, outputs=results,
                               failures=failures,
                               translate=layers.translate_cache_counts())
        out.latencies_ms = [1000 * probe.reference_s(seconds, start, end)
                            for seconds, start, end in cells]
        return out

    def expected(self) -> dict[str, tuple]:
        from repro.interp import execute
        from repro.workloads import get_workload

        return {
            name: execute(get_workload(name).program(), engine="reference",
                          mode="ideal", fuel=100_000_000).observable()
            for name in self.order
        }

    def check(self, result: PassResult, expected: dict) -> CheckResult:
        messages = list(result.failures)
        failed = len(result.failures)
        det_rounds = []
        for suites in result.outputs:
            det = {"static_ext": 0, "dyn_ext32": 0, "cycles": 0.0}
            for name, suite in suites.items():
                workload = suite.workload(name)
                if workload.gold_checksum != expected[name][0]:
                    failed += 1
                    messages.append(
                        f"{name}: gold checksum {workload.gold_checksum} != "
                        f"reference {expected[name][0]}")
                cell = workload.cells[DEFAULT_VARIANT]
                det["static_ext"] += cell.static_extends
                det["dyn_ext32"] += cell.dyn_extend32
                det["cycles"] += cell.cycles.total
            det_rounds.append(det)
        return _combine(result, det_rounds, failed, messages)


class ServeRun(Workload):
    """Two closed-loop clients send ``/v1/run`` to a fresh server.

    A round is one plan against a new server with an empty cache, in
    two phases: each client sends each of its own programs once (cache
    misses), then, once both clients are done, each sends its programs
    again in another order (cache hits).  Hits therefore only ever run
    beside hits and misses beside misses, so neither class is a blend
    of requests that did and did not wait for a compile.  Every round
    deals the fixed program set to the clients afresh, so a run averages
    over several pairings of concurrent requests.  The plan is the
    smallest in which both latency classes have ten samples beyond
    their p90: 100 misses and 100 hits.
    """

    name = "serve_run"
    ROUND_S = 7.5
    PER_CLASS = 100
    CLIENTS = 2
    server: serving.ServerProcess | None = None
    _servers_started = 0

    def prepare(self) -> None:
        count = self.CLIENTS * max(1, round(self.PER_CLASS * self.scale
                                            / self.CLIENTS))
        pool, warm = programs.serve_programs(count)
        self.programs = {p["name"]: p for p in pool}
        rng = random.Random(f"plan:{self.seed}")

        def steps(items: list[dict], kind: str) -> list[dict]:
            return [{"program": item["name"], "source": item["source"],
                     "kind": kind} for item in items]

        #: per round: (the clients' miss plans, their hit plans)
        self.plans = []
        for _ in range(self.rounds()):
            rng.shuffle(pool)
            dealt = [pool[client::self.CLIENTS]
                     for client in range(self.CLIENTS)]
            self.plans.append((
                [steps(mine, "miss") for mine in dealt],
                [steps(rng.sample(mine, len(mine)), "hit") for mine in dealt],
            ))
        self.warmup = [{"program": "warmup", "source": warm["source"],
                        "kind": "miss"},
                       {"program": "warmup", "source": warm["source"],
                        "kind": "hit"}]
        self.close()
        self.server = self._start(None)

    def _start(self, ledger_path: Path | None) -> serving.ServerProcess:
        self._servers_started += 1
        workdir = self.workdir / f"server{self._servers_started}"
        shutil.rmtree(workdir, ignore_errors=True)
        server = serving.ServerProcess(self.src, workdir,
                                       ledger_path=ledger_path)
        try:
            _, _, results = serving.run_clients(server.port, [self.warmup])
            if any(r["status"] != 200 for r in results):
                raise RuntimeError("server warm-up failed")
        except BaseException:
            server.stop()
            raise
        return server

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def run_pass(self, ledger: layers.Ledger | None = None) -> PassResult:
        probe = calib.SpeedProbe()
        rounds, spans = [], []
        guards: list[str] = []
        extra = {"serve.coalesced": 0, "serve.shed": 0, "serve.errors": 0}
        rss = 0.0
        dump = debugz = None
        for phases in self.plans:
            # Every round starts from an empty cache: the server prepared
            # in set-up serves the first round, later rounds a new one.
            if self.server is None:
                self.server = self._start(
                    self.workdir / "ledger.json" if ledger is not None
                    else None)
            server = self.server
            before = server.get_json("/metricsz")
            results = []
            for plans in phases:
                start, end, done = serving.run_clients(server.port, plans,
                                                       probe)
                spans.append((len(rounds), start, end))
                results += done
            after = server.get_json("/metricsz")
            if ledger is not None:
                debugz = server.get_json("/debugz?limit=100000")
            rss = max(rss, server.peak_rss_mb())
            dump = server.stop()
            self.server = None
            # Requests are timed against the speed of both processes.
            probe.samples += server.probe_samples
            rounds.append(results)
            for counter in extra:
                delta = (serving.counter_total(after, counter)
                         - serving.counter_total(before, counter))
                extra[counter] += delta
                if delta and counter != "serve.errors":
                    guards.append(f"{counter} moved by {delta} (must be 0)")
            planned_hits = sum(r["kind"] == "hit" for r in results)
            hits = after["cache"]["hits"] - before["cache"]["hits"]
            if hits != planned_hits:
                guards.append(f"cache hits {hits} != planned {planned_hits}")
        # The two clients overlap, so a phase's time is its wall time.
        walls = [0.0] * len(rounds)
        raw = [0.0] * len(rounds)
        for index, start, end in spans:
            walls[index] += probe.reference_s(end - start, start, end)
            raw[index] += end - start
        every = [r for results in rounds for r in results]
        for r in every:
            r["ref_ms"] = 1000 * probe.reference_s(r["end"] - r["start"],
                                                   r["start"], r["end"])
        misses = [r["ref_ms"] for r in every if r["kind"] == "miss"]
        extra["serve.miss_p50_ms"] = percentile(misses, 50)
        extra["serve.miss_p90_ms"] = percentile(misses, 90)
        extra["serve.client_rtt_ms"] = statistics.fmean(
            r["ref_ms"] for r in every)
        out = PassResult(
            round_walls=walls, raw_round_walls=raw,
            latencies_ms=[r["ref_ms"] for r in every if r["kind"] == "hit"],
            operations=len(every), slowdown=probe.slowdown(), outputs=rounds,
            guards=guards, peak_rss_mb=rss, extra=extra)
        if ledger is not None:
            for stage, value in serving.stage_means_ms(debugz).items():
                out.extra[f"serve.{stage}_ms"] = value / out.slowdown
            out.seconds, out.counts = dump["seconds"], dump["counts"]
            out.translate = dump["translate"]
        return out

    def expected(self) -> dict[str, tuple]:
        from repro.frontend import compile_source
        from repro.interp import Interpreter

        return {
            name: Interpreter(compile_source(item["source"], "ref"),
                              mode="ideal").run().observable()
            for name, item in self.programs.items()
        }

    def check(self, result: PassResult, expected: dict) -> CheckResult:
        from repro.serve.protocol import VOLATILE_KEYS

        messages = list(result.guards)
        failed = 0
        det_rounds = []
        for responses in result.outputs:
            first: dict[str, dict] = {}
            for response in responses:
                name = response["program"]
                if response["status"] != 200:
                    failed += 1
                    messages.append(f"{name}: HTTP {response['status']}")
                    continue
                body = json.loads(response["body"])
                stable = {k: v for k, v in body.items()
                          if k not in VOLATILE_KEYS}
                want = expected[name]
                got = (body.get("checksum"), body.get("ret_value"))
                if got != want or body.get("gold_checksum") != want[0]:
                    failed += 1
                    messages.append(f"{name}: served {got} != reference "
                                    f"{want}")
                elif first.setdefault(name, stable) != stable:
                    failed += 1
                    messages.append(f"{name}: response changed on a repeat")
            det_rounds.append({
                "static_ext": sum(b["static_extends"]
                                  for b in first.values()),
                "dyn_ext32": sum(b["extend_counts"].get("32", 0)
                                 for b in first.values()),
                "cycles": sum(b["cycles"]["total"] for b in first.values()),
            })
        return _combine(result, det_rounds, failed, messages)


def _placed(seconds: list[float], start: float,
            end: float) -> list[tuple[float, float, float]]:
    """``(seconds, start, end)`` of operations that ran back to back in
    ``[start, end]`` and took ``seconds`` each by their own clock."""
    scale = (end - start) / max(sum(seconds), 1e-9)
    placed = []
    for value in seconds:
        placed.append((value, start, start + value * scale))
        start += value * scale
    return placed


def _combine(result: PassResult, det_rounds: list[dict], failed: int,
             messages: list[str]) -> CheckResult:
    """Every round of a pass must agree on the deterministic counts."""
    for index, det in enumerate(det_rounds[1:], start=1):
        if det != det_rounds[0]:
            messages.append(f"round {index} counts {det} != round 0 "
                            f"{det_rounds[0]}")
    return CheckResult(attempted=result.operations, failed=failed,
                       det=det_rounds[0] if det_rounds else {},
                       messages=messages)


WORKLOADS = {cls.name: cls for cls in (JitCompile, PaperGrid, ServeRun)}
