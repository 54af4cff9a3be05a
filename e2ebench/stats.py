"""Shared by the orchestrator and the worker: nominal rates and order
statistics."""

from __future__ import annotations

import math

#: Operations per second of ``--seconds``, about the throughput at the
#: commit that introduced the benchmark on a 2-core host.  For
#: gui_events it is also the rate the open-loop generator offers: well
#: below saturation (the slow app's handler is busy about 6% of the time
#: and the process uses about 6% of a core).
NOMINAL_OPS_PER_S = {"shell_session": 13, "launch_churn": 2000,
                     "remote_exec": 300, "gui_events": 300}

#: Tuples in the worker's host probe table, and how many one walk reads.
PROBE_TABLE = 1 << 18
PROBE_READS = 1 << 12

#: Seconds one probe walk (``worker.HostProbe``) takes on the nominal
#: host: the 2-core host (Intel Xeon, Python 3.11) the benchmark was
#: built on, when other tenants leave it alone.
REFERENCE_S = 0.001

#: Seconds of nominal work between two probe walks.
PROBE_EVERY_S = 0.1

#: How the program's times follow the probe: time ~ probe ** this.  The
#: slope of log time against log probe time over ten worker runs of each
#: workload on the nominal host, while the probe ranged over 1.0-4.2 ms,
#: was 0.23-0.34 for every per-operation figure, and 0.29 for
#: launch_churn's time outside full collections.  One exponent for every
#: workload keeps the scaling free of per-workload fitting.
HOST_SENSITIVITY = 0.3

#: The same for full collections, which walk the whole heap and wait on
#: memory like the probe: over the same launch_churn runs their time
#: followed the probe's with slope 1.29 (correlation 0.97).
GC_SENSITIVITY = 1.0

#: Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten of ``count``
    samples beyond it."""
    for pct in TAIL_LADDER:
        if count * (100 - pct) / 100 >= 10:
            return pct
    return 50.0


def quantile(sorted_values: list, pct: float) -> float:
    """Harrell-Davis estimate of the ``pct`` percentile of an ascending,
    non-empty list.

    A weighted mean of the order statistics around the percentile's rank
    (weights from a beta distribution), rather than one of them.  Some
    latencies come in steps (a shell pipeline is polled every 20 ms), and
    a nearest-rank percentile next to a step jumps by a whole step when
    the host is a little slower; this estimate moves smoothly instead.
    """
    count = len(sorted_values)
    p = pct / 100
    if count == 1 or p <= 0 or p >= 1:
        return percentile(sorted_values, pct)
    a, b = p * (count + 1), (1 - p) * (count + 1)
    # Weights more than ten standard deviations from the rank are below
    # any float's resolution.
    spread = 10 * math.sqrt(p * (1 - p) / count)
    first = max(0, int((p - spread) * count) - 1)
    last = min(count, int((p + spread) * count) + 2)
    total = 0.0
    below = _beta_cdf(a, b, first / count)
    for index in range(first, last):
        upto = _beta_cdf(a, b, (index + 1) / count)
        total += (upto - below) * sorted_values[index]
        below = upto
    return total


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1 - front * _beta_fraction(b, a, 1 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified
    Lentz's method)."""
    tiny = 1e-300

    def guard(value):
        return value if abs(value) > tiny else tiny

    c, d = 1.0, 1 / guard(1 - (a + b) * x / (a + 1))
    result = d
    for m in range(1, 1000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x
                          / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 / guard(1 + numerator * d)
            c = guard(1 + numerator / c)
            result *= d * c
        if abs(d * c - 1) < 1e-13:
            break
    return result
