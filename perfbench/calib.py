"""Host-speed calibration: time a fixed loop between the measured work.

On a shared virtual machine the speed of a vCPU drifts by 20-40 % over
minutes, so seconds measured in two runs of identical work can differ
by more than any useful regression bound.  A :class:`SpeedProbe` times
one *unit* — a fixed pure-Python loop that uses none of the program
under test — while a pass runs.  Over a second the unit's time tracks
the workload's own speed closely (their correlation was 0.97 in
one-second blocks on the 2-vCPU reference host), so

    reference seconds = measured seconds x UNIT_REF_S / unit time nearby

is the time the operation would have taken on a host where one unit
takes exactly ``UNIT_REF_S``.  Timing metrics are reported in reference
seconds (units ``ref_s``/``ref_ms``); raw seconds stay on the
human-readable lines.  A change to the program moves reference seconds
exactly as it moves raw seconds: the unit does not depend on it.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import statistics
import threading
import time

#: Loop trips in one unit, and the unit's time on the reference host.
UNIT_LOOPS = 4000
UNIT_REF_S = 0.001


def _unit() -> int:
    table = {}
    acc = 0
    for i in range(UNIT_LOOPS):
        acc = (acc + (i * 31 ^ acc >> 3)) & 0xFFFFFFFF
        table[i & 63] = acc
    return acc


class SpeedProbe:
    """Timed units, each stamped with when it ran."""

    #: Seconds around an operation whose units describe its speed.
    WINDOW_S = 0.5
    #: Longer operations are split into slices this long, each divided
    #: by the slowdown around it: the host switches speed within seconds
    #: (the unit's time moved between two levels 30 % apart), and one
    #: slowdown for a 4 s operation misjudges the part on the other side
    #: of a switch.
    SLICE_S = 0.25

    def __init__(self) -> None:
        #: ``(time stamp, unit seconds)``; stamps are ``perf_counter``
        #: values, which are comparable across processes on Linux
        #: (``CLOCK_MONOTONIC``), so another process's samples can be
        #: added here.
        self.samples: list[tuple[float, float]] = []
        self._sorted: list[tuple[float, float]] = []
        self._stamps: list[float] = []

    def sample(self, units: int = 1) -> None:
        """Run and time ``units`` units (``list.append`` is thread-safe)."""
        for _ in range(units):
            start = time.perf_counter()
            _unit()
            end = time.perf_counter()
            self.samples.append(((start + end) / 2, end - start))

    @contextlib.contextmanager
    def sampling(self, interval_s: float = 0.05):
        """Time one unit every ``interval_s`` in a background thread
        while the body runs.

        The thread takes the interpreter lock for about one unit (1 ms)
        per interval, a constant 2 % of the work's time; its unit times
        are taken while it holds the lock, so they measure the host's
        speed during the work, not the wait for the lock.
        """
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(interval_s):
                self.sample()

        thread = threading.Thread(target=loop, daemon=True)
        self.sample()
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join(timeout=10)
            self.sample()

    def slowdown(self, start: float | None = None,
                 end: float | None = None) -> float:
        """Median unit time near ``[start, end]`` over ``UNIT_REF_S``
        (> 1: slower than the reference host); whole pass by default."""
        if len(self._sorted) != len(self.samples):
            self._sorted = sorted(self.samples)
            self._stamps = [stamp for stamp, _ in self._sorted]
        samples = self._sorted
        if start is not None and end is not None:
            low = bisect.bisect_left(self._stamps, start - self.WINDOW_S)
            high = bisect.bisect_right(self._stamps, end + self.WINDOW_S)
            if high - low >= 3:
                samples = samples[low:high]
        return statistics.median(s for _, s in samples) / UNIT_REF_S

    def reference_s(self, seconds: float, start: float,
                    end: float) -> float:
        """``seconds`` measured over ``[start, end]``, in reference
        seconds."""
        span = end - start
        if span <= self.SLICE_S:
            return seconds / self.slowdown(start, end)
        slices = math.ceil(span / self.SLICE_S)
        width = span / slices
        reference = sum(
            width / self.slowdown(start + k * width, start + (k + 1) * width)
            for k in range(slices))
        return seconds * reference / span
