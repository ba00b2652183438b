"""Latency summaries with percentile discipline.

A tail percentile is only printed when the sample supports it: at least
``MIN_BEYOND`` samples must lie beyond it.  With ``n`` samples the
nearest-rank percentile ``q`` sits at rank ``ceil(q * n)``, leaving
``n - ceil(q * n)`` samples beyond it, so p99.9 needs 10 000 samples,
p99 needs 1 000, p95 needs 200 and p90 needs 100.
"""

from __future__ import annotations

import math
import time

#: Samples that must lie beyond a tail percentile before it is printed.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9)


#: CPU seconds of timed work between two runs of the reference kernel.
PROBE_EVERY_S = 0.05

#: Kernel runs per speed window (about one second of timed work).
PROBE_WINDOW = 20

#: CPU milliseconds the reference kernel takes at nominal machine speed.
REFERENCE_MS = 1.0


def reference_kernel():
    """Fixed pure-Python work (dict, set and tuple churn), about 1 ms."""
    counts = {}
    seen = set()
    for i in range(2000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + i
        seen.add((key ^ 0x55, key & 7))
    return len(counts) + len(seen)


def kernel_seconds():
    """CPU seconds of one run of the reference kernel."""
    start = time.process_time()
    reference_kernel()
    return time.process_time() - start


def speed_factor(kernel_runs):
    """``REFERENCE_MS / median kernel time``: multiplying a CPU time taken
    at the same moment by it expresses that time at nominal speed."""
    return REFERENCE_MS / (1e3 * percentile(sorted(kernel_runs), 0.5))


class SpeedGauge:
    """Follows the machine's CPU speed through a timed region.

    On a shared virtual machine the CPU time of fixed work drifts by 10-40 %
    between runs and within one (other guests on the same cores).  The
    gauge runs :func:`reference_kernel` after every ``PROBE_EVERY_S`` of
    timed work, outside any request, and gives each request the factor
    ``REFERENCE_MS / median kernel time`` of its window of
    ``PROBE_WINDOW`` kernel runs.  Multiplying CPU times by it expresses
    them at nominal speed.
    """

    def __init__(self):
        self.probes = []
        self._next = 0.0

    def start(self):
        self._next = time.process_time()

    def position(self):
        """Where the next request sits in the probe sequence."""
        return len(self.probes)

    def tick(self, now):
        if now >= self._next:
            self.probes.append(kernel_seconds())
            self._next = time.process_time() + PROBE_EVERY_S

    def factors(self):
        """The factor of each window; the last, short window joins the one before."""
        if not self.probes:
            return [1.0]
        n_windows = max(1, len(self.probes) // PROBE_WINDOW)
        factors = []
        for w in range(n_windows):
            end = len(self.probes) if w == n_windows - 1 else (w + 1) * PROBE_WINDOW
            factors.append(speed_factor(self.probes[w * PROBE_WINDOW:end]))
        return factors

    def factor_of(self, factors, position):
        return factors[min(position // PROBE_WINDOW, len(factors) - 1)]


class UnsupportedPercentile(ValueError):
    """Raised when a sample is too small for the requested percentile."""


def beyond(n, q):
    """Samples strictly beyond the nearest-rank ``q`` percentile of ``n``."""
    return n - math.ceil(q * n)


def percentile(sorted_samples, q):
    """Nearest-rank percentile of an ascending sample.

    Refuses (raises :class:`UnsupportedPercentile`) when fewer than
    ``MIN_BEYOND`` samples lie beyond it.  The median is exempt: it is
    the central estimate and is printed with its sample count.
    """
    n = len(sorted_samples)
    if n == 0:
        raise UnsupportedPercentile("empty sample")
    if q != 0.5 and beyond(n, q) < MIN_BEYOND:
        raise UnsupportedPercentile(
            "p%s needs %d samples beyond it; n=%d leaves %d"
            % (label(q), MIN_BEYOND, n, beyond(n, q))
        )
    return sorted_samples[max(0, math.ceil(q * n) - 1)]


def tail_quantile(n):
    """The highest ladder percentile that ``n`` samples support, or None."""
    for q in TAIL_LADDER:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def label(q):
    """``0.999`` -> ``"99.9"``, ``0.5`` -> ``"50"``."""
    return ("%.1f" % (q * 100)).rstrip("0").rstrip(".")


class Timing:
    """Latency samples of one request kind, in seconds, on three clocks.

    ``wall`` is the elapsed time of the request and ``cpu`` its process CPU
    time.  ``norm`` is the CPU time at nominal machine speed, from the
    run's :class:`SpeedGauge`.
    CPU time leaves out the time the process waits, for example on the
    disk, but in this container an fsync shows up as CPU time.
    """

    def __init__(self, name, gauge):
        self.name = name
        self.gauge = gauge
        self.wall = []
        self.cpu = []
        self.position = []

    def add(self, wall, cpu, position=0):
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.position.append(position)

    def __len__(self):
        return len(self.wall)

    def samples(self, clock):
        if clock != "norm":
            return getattr(self, clock)
        factors = self.gauge.factors()
        return [cpu * self.gauge.factor_of(factors, position)
                for cpu, position in zip(self.cpu, self.position)]

    def total(self, clock="norm"):
        return math.fsum(self.samples(clock))

    def median(self, clock="norm"):
        return percentile(sorted(self.samples(clock)), 0.5)

    def at(self, q, clock="norm"):
        """The ``q`` percentile; raises when the sample cannot support it."""
        return percentile(sorted(self.samples(clock)), q)

    def tail(self, clock="norm"):
        """``(q, value)`` of the highest supported tail percentile."""
        q = tail_quantile(len(self))
        if q is None:
            raise UnsupportedPercentile(
                "%s: n=%d supports no tail percentile (p90 needs %d)"
                % (self.name, len(self), 10 * MIN_BEYOND)
            )
        return q, self.at(q, clock)
