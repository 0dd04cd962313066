"""Machine-speed calibration of the benchmark's timings.

The benchmark is meant for shared machines whose speed drifts by tens of
percent over minutes and, on top of that, flips between a fast and a
slow state (about 1.7x apart) every fraction of a second to a few
seconds.  A run-wide correction cannot follow the flips, and they move
the tail of the latency distribution most.  So the worker samples the
time of a fixed kernel every ``PERIOD_S`` of its run, between requests,
and run.py scales each request by the speed of the machine around it:

    reported time = measured time * REF_S / mean of the two kernel
                    samples that bracket the request

and goodput the other way round.  The kernel mixes the kinds of work
genairy does (Python arithmetic and dict updates, small numpy vector
operations) and never touches genairy, so a change to the library
cannot change it.  Both the measured and the scaled values are printed.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

__all__ = ["REF_S", "PERIOD_S", "kernel", "sample", "factor", "local_factors"]

REF_S = 2.0e-4
PERIOD_S = 0.05


def kernel() -> float:
    """Run the calibration kernel once; return its duration in seconds."""
    # imported here, so that numpy's import stays inside the setup time
    import numpy as np

    t0 = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 17)
    acc = 0.0
    table = {}
    for i in range(200):
        acc += math.sqrt(i + 0.5) * math.cos(acc)
        table[i % 31, i] = acc
    for i in range(25):
        acc += float(np.cos(grid * (i + acc % 1.0)) @ grid)
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc + len(table)):
        raise ArithmeticError("calibration kernel diverged")
    return elapsed


def sample() -> float:
    """Time the kernel hot: one untimed run, then the median of three timed runs.

    The untimed run keeps first-call costs and the cache misses left by
    the requests (which depend on the library) out of the sample; the
    median keeps an interrupt in one timed run out of it.
    """
    kernel()
    return statistics.median(kernel() for _ in range(3))


def factor(durations: list[float]) -> float:
    """REF_S over the mean sampled kernel time: multiply measured times by this."""
    return REF_S * len(durations) / math.fsum(durations)


def local_factors(starts: list[float], durations: list[float], sampled_at: list[float]) -> list[float]:
    """Per-request factor from the kernel samples taken just before and after it.

    ``starts`` and ``sampled_at`` are offsets from the start of the run;
    the worker samples the kernel between requests, first at offset 0,
    so every request lies between two samples or after the last one.
    """
    out = []
    for t in starts:
        k = max(0, bisect.bisect_right(sampled_at, t) - 1)
        out.append(factor(durations[k : k + 2]))
    return out
