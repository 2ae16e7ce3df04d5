"""Run ``repro serve`` in this process, optionally with layer tracing.

    python3 perfbench/serve_launcher.py --src SRC --probe PROBE.json \
        [--ledger OUT.json] -- SERVE-ARGS

``SRC`` is the source tree to import ``repro`` from.  While the server
runs, a :class:`calib.SpeedProbe` samples this process's speed; when
the server stops (SIGINT) the samples are written to ``PROBE.json``, so
that request times can be divided by the speed of the process that
served them.  With ``--ledger`` the layer wrappers of :mod:`layers`
are installed before the server starts, and the ledger and the
translation-cache counts are written to ``OUT.json`` when it stops.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--probe", required=True)
    parser.add_argument("--ledger", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args and serve_args[0] == "--":
        serve_args = serve_args[1:]

    sys.path.insert(0, args.src)
    import repro.cli

    ledger = None
    if args.ledger:
        import layers

        ledger = layers.Ledger()
        layers.install(ledger)
    import calib

    probe = calib.SpeedProbe()
    with probe.sampling():
        code = repro.cli.main(["serve", *serve_args])
    with open(args.probe, "w", encoding="utf-8") as handle:
        json.dump(probe.samples, handle)
    if ledger is not None:
        seconds, counts = ledger.snapshot()
        with open(args.ledger, "w", encoding="utf-8") as handle:
            json.dump({"seconds": seconds, "counts": counts,
                       "translate": layers.translate_cache_counts()}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
