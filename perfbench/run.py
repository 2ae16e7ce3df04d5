"""The repository benchmark: one command per workload, every metric named.

    python3 perfbench/run.py --workload {jit_compile,paper_grid,serve_run}
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it imports ``repro`` from the
checkout's ``src/`` and from nowhere else, and exits non-zero (printing
no result) when that tree is missing.

``--trace 0`` measures the workload with no instrumentation and prints
the end-to-end metrics.  ``--trace 1`` alternates two untraced and two
traced one-round passes over the same inputs, prints the per-layer
metrics, and fails the run unless the deterministic counts agree
across all four passes.  Outputs are checked against the
reference interpreter after the timed region, in both modes.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": 120, "failed": 0,
     "metrics": {"wall_s": {"value": 9.81, "unit": "s"}, ...}}

See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import os
import sys

#: Python randomises string hashing per process, and the hash seed moves
#: the compiler's speed: the median compile time of an ``fp_emu`` cell
#: ranged over 24 % across six hash seeds, and 6.5 % over six processes
#: with one.  Every run therefore re-executes itself under this seed
#: (the server it starts inherits it).
HASH_SEED = "0"

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, "PYTHONHASHSEED": HASH_SEED})

import time  # noqa: E402

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_REPEATS = 3

#: End-to-end metrics: name -> unit.  Printed by every untraced run.
#: ``ref_s`` are reference seconds (see calib.py); so is ``setup_s``,
#: whose unit label ``s`` the benchmark contract fixes.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wall_s": "ref_s",
    "rps": "1/ref_s",
    "p50_ms": "ref_ms",
    "p90_ms": "ref_ms",
    "static_ext": "count",
    "dyn_ext32": "count",
    "cycles": "count",
}

#: Per-layer metrics beyond the ledger's (see layers.layer_metrics).
EXTRA_LAYER_UNITS = {
    "bench.self.s": "ref_s",
    "trace.untraced_s": "ref_s",
    "trace.traced_s": "ref_s",
    "trace.overhead_s": "ref_s",
    "trace.layers_s": "ref_s",
    "host.slowdown": "ratio",
    "compile.scaling_exp": "1",
    "serve.client_rtt_ms": "ref_ms",
    "serve.admission_ms": "ref_ms",
    "serve.parse_ms": "ref_ms",
    "serve.prepare_ms": "ref_ms",
    "serve.queue_ms": "ref_ms",
    "serve.execute_ms": "ref_ms",
    "serve.miss_p50_ms": "ref_ms",
    "serve.miss_p90_ms": "ref_ms",
    "serve.shed": "count",
    "serve.coalesced": "count",
    "serve.errors": "count",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` only."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SetupError(f"imported repro from {repro.__file__}, not {SRC}")


def layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit."""
    import layers

    units = {}
    for name in layers.layer_metrics({}, {}, {}):
        if name.endswith(".s"):
            units[name] = "ref_s"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    units.update(EXTRA_LAYER_UNITS)
    return units


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_s: float, result, det: dict) -> dict[str, dict]:
    from workloads import percentile

    values = {
        "setup_s": setup_s,
        "peak_rss_mb": result.peak_rss_mb,
        "wall_s": result.wall_s,
        "rps": result.operations / sum(result.round_walls),
        "p50_ms": percentile(result.latencies_ms, 50),
        "p90_ms": percentile(result.latencies_ms, 90),
        **det,
    }
    return {name: _metric(values[name], unit)
            for name, unit in END_TO_END.items()}


def _mean(dicts: list[dict]) -> dict[str, float]:
    keys = {key for d in dicts for key in d}
    return {key: statistics.fmean(d.get(key, 0.0) for d in dicts)
            for key in keys}


def per_layer(untraced: list, traced: list) -> dict[str, dict]:
    """Per-layer metrics: times are means over the traced passes, counts
    come from the first traced pass (the others must repeat them)."""
    import layers

    seconds = _mean([{layer: value / p.slowdown
                      for layer, value in p.seconds.items()}
                     for p in traced])
    values = layers.layer_metrics(seconds, traced[0].counts,
                                  traced[0].translate)
    values.update({name: 0.0 for name in EXTRA_LAYER_UNITS})
    # Stage times exist only in a traced pass; latencies and counts the
    # untraced passes also measured are taken from them.
    values.update(_mean([p.extra for p in traced]))
    values.update(_mean([p.extra for p in untraced]))
    untraced_s = statistics.median(p.wall_s for p in untraced)
    traced_s = statistics.median(p.wall_s for p in traced)
    values["host.slowdown"] = statistics.fmean(
        p.slowdown for p in untraced + traced)
    values["bench.self.s"] = seconds.get("bench", 0.0)
    values["trace.untraced_s"] = untraced_s
    values["trace.traced_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.layers_s"] = sum(v for k, v in seconds.items()
                                   if k != "bench")
    return {name: _metric(values[name], unit)
            for name, unit in layer_units().items()}


def measure(workload, trace: bool) -> dict:
    """Set up, run the pass(es), check, and build the result object.

    A traced run alternates untraced and traced passes (U T U T) so
    that drift in host speed falls on both sides of the overhead.
    """
    import layers

    import calib

    import_s = time.perf_counter() - _STARTED
    workload.single_round = trace
    probe = calib.SpeedProbe()
    setups = []
    with probe.sampling():
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.prepare()
            end = time.perf_counter()
            setups.append(probe.reference_s(end - start, start, end))
    # In reference seconds like every other time (see calib.py); the
    # imports ran before the probe, so they take the set-up's slowdown.
    setup_s = import_s / probe.slowdown() + statistics.median(setups)

    untraced = [workload.run_pass(None)]
    traced = []
    if trace:
        for index in range(2):
            ledger = layers.Ledger()
            result = workload.run_pass(ledger)
            if not result.seconds:
                result.seconds, result.counts = ledger.snapshot()
            traced.append(result)
            if index == 0:
                untraced.append(workload.run_pass(None))
    workload.close()

    expected = workload.expected()
    passes = untraced + traced
    checks = [workload.check(p, expected) for p in passes]
    messages = [m for check in checks for m in check.messages]
    for index, check in enumerate(checks[1:], start=1):
        if check.det != checks[0].det:
            messages.append(f"pass {index} counts {check.det} != first "
                            f"pass {checks[0].det}")
    if trace:
        first, second = (layers.layer_metrics(p.seconds, p.counts, {})
                         for p in traced)
        for name in layers.DETERMINISTIC_COUNTS:
            if first[name] != second[name]:
                messages.append(f"{name}: {first[name]} then {second[name]} "
                                f"over the same input")
    attempted = sum(check.attempted for check in checks)
    failed = sum(check.failed for check in checks)
    for message in messages:
        print(f"CHECK: {message}", file=sys.stderr)
    metrics = (per_layer(untraced, traced) if trace
               else end_to_end(setup_s, untraced[0], checks[0].det))
    raw = [f"raw wall {p.raw_wall_s:.3f} s at slowdown {p.slowdown:.3f} "
           f"({'traced' if p in traced else 'untraced'} pass)"
           for p in passes]
    return {"correct": failed == 0 and not messages, "attempted": attempted,
            "failed": failed, "metrics": metrics, "raw": raw}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("jit_compile", "paper_grid", "serve_run"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        import_repro()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workload = WORKLOADS[args.workload](
        args.seed, args.seconds, src=SRC, workdir=workdir)
    try:
        result = measure(workload, bool(args.trace))
    except Exception:  # noqa: BLE001 — report and exit without a result
        traceback.print_exc()
        return 1
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for line in result.pop("raw"):
        print(f"{args.workload:12s} {line}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload:12s} {name:28s} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    print(f"{args.workload:12s} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
