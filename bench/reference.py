"""A fixed reference kernel that measures the host's current speed.

The machine the benchmark runs on is shared, and its speed drifts by half
again over minutes: the same operation took 0.53 s and 0.94 s a minute
apart, with CPU time equal to wall time, so it is not scheduling that a
longer run or a median could remove.  The runner times this kernel between
operations, on the same vCPU, and reports the median operation time as a
multiple of the median kernel time of the run.  Over five minutes in which
the raw time of an operation alternated with this kernel moved by 40 percent
(quartile distance over median of 20-second medians), the ratio moved by 3.
Over seconds the two do not move together, so the runner takes the ratio of
medians over a whole run, not of neighbouring readings.

The kernel does not use msgeom, so no change to the program moves it, and it
mixes the kinds of work the workloads do: interpreted Python arithmetic,
many numpy calls on small arrays, and passes over arrays larger than the
cache.  The runner pins the BLAS pools to one thread before numpy loads.
"""

from __future__ import annotations

import time

import numpy as np

_SMALL = np.random.default_rng(20150408).standard_normal((48, 3))
_LARGE = np.random.default_rng(20150409).standard_normal(1 << 22)   # 32 MB


def _interpreted(n=400_000):
    acc, table = 0.0, {}
    for i in range(n):
        acc += (i * 0.5) % 7.0
        table[i & 1023] = acc
    return acc + len(table)


def _small_arrays(n=10_000):
    acc = 0.0
    for i in range(n):
        d = _SMALL - _SMALL[i % 48]
        acc += float(np.sqrt(np.einsum("ij,ij->i", d, d)).sum())
    return acc


def _streaming(passes=3):
    acc = 0.0
    for _ in range(passes):
        y = _LARGE * 1.0001 + 0.5
        acc += float(np.dot(y, _LARGE)) + float(np.abs(y).max())
    return acc


def reference_seconds():
    """Wall seconds of one pass of the kernel (about 0.3 s on a quiet host)."""
    start = time.perf_counter()
    _interpreted()
    _small_arrays()
    _streaming()
    return time.perf_counter() - start
