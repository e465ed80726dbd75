"""The machine's momentary speed, measured by a fixed pure-Python kernel.

On a shared machine the speed of the processor wanders by tens of percent
within seconds, and the wander is common to all Python code: timing an op
and this kernel side by side, each varied with an interquartile range of
about 30 % of its median over one-second windows, their ratio by 3-4 %.
So every timing the benchmark reports is scaled to a nominal machine, on
which the kernel takes ``NOMINAL_NS``: an op that took ``t`` while the
kernel took ``r`` counts as ``t * NOMINAL_NS / r``, with ``r`` the median of
the kernel's runs nearest the op.  The kernel does not use midrad, so a
change to midrad cannot move it.

This module imports only the standard library; the set-up probe uses it
before it imports midrad.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

NOMINAL_NS = 2_000_000


def _kernel():
    # small-object rational arithmetic and a big-integer product chain, like
    # the mix of object overhead and bignum work in midrad's ops
    s = Fraction(0)
    for k in range(1, 400):
        s += Fraction(1, k * k)
    x = 1
    for k in range(1, 1500):
        x *= k
    return s, x


def reference_ns() -> int:
    """Nanoseconds the kernel takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        _kernel()
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()
