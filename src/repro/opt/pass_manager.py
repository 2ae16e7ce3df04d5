"""Pass pipeline with per-bucket timing (for the paper's Table 3).

The paper buckets JIT compilation time into "sign extension
optimizations", "UD/DU chain creation", and "others"; passes here
declare their bucket so the harness can reproduce that breakdown.
Chain builds made through :func:`~repro.analysis.ud_du.chains_for` are
charged to the chain bucket wherever they happen, and taken out of the
bucket of the pass that asked for them (:func:`charged`).

Passes share one set of UD/DU chains per function (cached on the
function until ``Function.invalidate_cfg()``); each pass drops or splices
them as it edits, so the manager itself never touches the cache.

When a :class:`~repro.telemetry.tracer.Tracer` is attached, every pass
execution additionally becomes one span in the pipeline trace.
"""

from __future__ import annotations

import contextlib
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..ir.function import Function

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..telemetry.tracer import Tracer

PassFn = Callable[[Function], bool]

BUCKET_SIGN_EXT = "sign extension optimizations"
BUCKET_CHAINS = "UD/DU chain creation"
BUCKET_OTHERS = "others"

#: Short machine-friendly key per bucket, shared by the harness JSON
#: export and the telemetry export (one source of truth for the
#: bucket -> key mapping).
BUCKET_KEYS = {
    BUCKET_SIGN_EXT: "sign_ext",
    BUCKET_CHAINS: "chains",
    BUCKET_OTHERS: "others",
}


@dataclass
class Pass:
    name: str
    run: PassFn
    bucket: str = BUCKET_OTHERS


@dataclass
class Timing:
    """Accumulated wall-clock seconds per bucket."""

    seconds: dict[str, float] = field(default_factory=dict)

    def add(self, bucket: str, elapsed: float) -> None:
        self.seconds[bucket] = self.seconds.get(bucket, 0.0) + elapsed

    def merge(self, other: "Timing") -> None:
        for bucket, elapsed in other.seconds.items():
            self.add(bucket, elapsed)

    def total(self) -> float:
        return sum(self.seconds.values())

    def fraction(self, bucket: str) -> float:
        total = self.total()
        if total == 0.0:
            return 0.0
        return self.seconds.get(bucket, 0.0) / total

    def as_dict(self) -> dict[str, float]:
        """Seconds per bucket under the short keys, plus the total.

        The single rendering used by the harness JSON export, Table 3
        code, and the telemetry export.
        """
        out = {
            key: self.seconds.get(bucket, 0.0)
            for bucket, key in BUCKET_KEYS.items()
        }
        out["total"] = self.total()
        return out


@contextlib.contextmanager
def charged(timing: Timing, bucket: str, func: Function) -> Iterator[None]:
    """Charge the body's wall time to ``bucket``, except the time spent
    building ``func``'s chains, which goes to :data:`BUCKET_CHAINS`."""
    chains_before = func.chains_seconds
    start = time.perf_counter()
    yield
    built = func.chains_seconds - chains_before
    timing.add(bucket, time.perf_counter() - start - built)
    if built:
        timing.add(BUCKET_CHAINS, built)


class PassManager:
    """Runs a fixed pipeline over one function, recording timing."""

    def __init__(self, passes: list[Pass], timing: Timing | None = None,
                 tracer: "Tracer | None" = None) -> None:
        self.passes = passes
        self.timing = timing if timing is not None else Timing()
        self.tracer = tracer

    def run(self, func: Function) -> bool:
        changed = False
        for pass_ in self.passes:
            with charged(self.timing, pass_.bucket, func):
                if self.tracer is not None:
                    with self.tracer.span(pass_.name, category="pass",
                                          function=func.name) as span:
                        result = bool(pass_.run(func))
                        span.annotate(changed=result)
                else:
                    result = bool(pass_.run(func))
            changed |= result
        return changed

    def run_to_fixpoint(self, func: Function, max_rounds: int = 4) -> None:
        for _ in range(max_rounds):
            if not self.run(func):
                break
