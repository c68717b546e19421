"""Times on the reference host: wall-clock spans scaled by the host's speed then.

The host the benchmark was tuned on (a 2-vCPU x86-64 VM shared with other
tenants) alternates between full speed and about 60% of it, in phases from
seconds to minutes.  CPU time slows down with wall time there, so neither
clock nor a best-of-N escapes a slow phase that outlasts the run.  Instead a
fixed pure-Python big-integer loop is timed between the spans, and a span is
multiplied by ``REFERENCE_S`` over the loop's time around it (see
``scale``).  On that host a desk job's ratio to the loop stayed within about
5% while its wall time moved by 60%.

A change to ``aces`` cannot move the loop, so a program that gets slower or
faster shows in full.  Raw wall times can be recovered: the traced run
reports ``host.calibration_ms``, the loop's median time during the run.
"""

from __future__ import annotations

import bisect
import statistics
import time

# The loop's time on the reference host when no other tenant was busy: the
# 5th percentile of about 10 000 samples, CPython 3.11.7.
REFERENCE_S = 0.00075
WINDOW_S = 0.5
# Calibration after a span lasts about this share of it, so long spans get
# enough samples on both sides; short spans get one loop.
SHARE = 0.02

_Q = 102481630431415235  # the large channel's modulus: products of 57-bit residues


def loop_seconds() -> float:
    """Wall time of one fixed run of the calibration loop."""
    start = time.perf_counter()
    acc = 1
    for i in range(4000):
        acc = (acc * 1234567891 + i) % _Q
    return time.perf_counter() - start


class HostClock:
    """Calibration samples taken between spans, and the scale they give."""

    def __init__(self):
        self.at: list[float] = []       # perf_counter when each sample ended
        self.samples: list[float] = []  # loop seconds

    def calibrate(self, after_span_s: float = 0.0) -> None:
        """Run the loop once, or for about ``SHARE`` of the span just timed."""
        until = time.perf_counter() + SHARE * after_span_s
        while True:
            self.samples.append(loop_seconds())
            self.at.append(time.perf_counter())
            if self.at[-1] >= until:
                return

    def span(self, spans: list, fn, *args):
        """Call ``fn``, append its (start, stop) to ``spans``, calibrate, and
        return its result."""
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            stop = time.perf_counter()
            spans.append((start, stop))
            self.calibrate(stop - start)

    def seconds(self, spans: list) -> float:
        """Reference-host seconds of a list of spans."""
        return sum((stop - start) * self.scale(start, stop) for start, stop in spans)

    def scale(self, start: float, stop: float) -> float:
        """Reference seconds per wall second for a span between ``start`` and ``stop``.

        The loop's median in the window before the span and in the window
        after it are averaged, so a span during which the speed changed gets
        the midpoint rather than one side.
        """
        at = self.at
        before = self.samples[bisect.bisect_left(at, start - WINDOW_S):bisect.bisect_right(at, start)]
        after = self.samples[bisect.bisect_left(at, stop):bisect.bisect_right(at, stop + WINDOW_S)]
        return REFERENCE_S * 2 / (statistics.median(before) + statistics.median(after))
