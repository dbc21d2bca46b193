"""The host's current speed, from a fixed reference kernel.

The benchmark runs on small machines whose cores are shared with other
tenants, and their effective speed drifts: on the shared 2-core x86_64
virtual machine the baseline was taken on, deep-3d operations took a median
0.96 s in one run and 1.54 s in a run three minutes earlier, and single
operations in one run ranged from 0.9 s to 1.7 s.  A regression bound cannot
hold against that, so the benchmark times this fixed kernel between
operations (outside the timed intervals, with the operation's result dropped
and garbage collected) and reports seconds at the host's nominal speed:
measured seconds times ``NOMINAL_S`` over the kernel's time around them.
``run.py`` prints the measured values too.

The kernel mixes the kinds of work the workloads do: many numpy calls on
small arrays (the nested solve), interpreter-bound loops over Python objects
(CSV parsing, per-point tolerances, witness search), and passes over arrays
of 2^17 values (large-N splits, masses and point location).  It allocates
no objects the garbage collector tracks, so a library that leaves more
objects alive does not make it collect more often; ``README.md`` records a
check that a slower or memory-hungry library leaves the factor unchanged.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: About the median seconds of one ``kernel`` call on the baseline host while
#: it was quiet; a constant, so only the ratio between runs matters.
NOMINAL_S = 0.03


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = [rng.random(512) for _ in range(160)]
        self._large = rng.random(2**17)
        self._values = rng.random(150000).tolist()
        self.samples: list[float] = []

    def kernel(self) -> float:
        total = 0.0
        for a in self._small:
            cum = np.cumsum(a[np.argsort(a, kind="stable")])
            total += float(cum[np.searchsorted(cum, 0.5 * cum[-1])])
        # Only temporaries, which Python's float free list recycles: a loop
        # that builds new objects slows down when the library leaves a large
        # heap behind (a dict of 50000 floats took 23% longer with two
        # million live lists), and would hide part of that library's cost.
        for x in self._values:
            if x > 0.5:
                total += x * 0.5
            else:
                total -= x
        for _ in range(10):
            total += float(np.sort(self._large)[0])
            total += float(np.sum(self._large[self._large > 0.5]))
        return total

    def sample(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    @staticmethod
    def factor(kernel_seconds) -> float:
        """Nominal over the median of the given kernel times: below 1 while
        the host is slow."""
        return NOMINAL_S / statistics.median(kernel_seconds)
