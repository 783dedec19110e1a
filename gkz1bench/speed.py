"""A fixed pure-Python probe of how fast the host runs right now.

The reference machine is a shared 2-vCPU host whose speed drifts by up to
half for tens of seconds at a time, far beyond any useful regression bound.
Timing this probe in the same interpreter around each block of measured
calls, and scaling the calls' times by reference / probe, removes most of
that drift: on the reference machine it cut the quartile spread of 20-second
medians of a 0.5 s `solve` from 0.37 to 0.08.  The probe uses only
the standard library, so no change to gkz1 can change it.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# Probe seconds on the reference machine when the host is quiet (Python 3.11.7).
REFERENCE_PROBE_S = 0.0105


def probe() -> float:
    """Seconds for a harmonic sum of 3000 Fractions; the median of three."""
    times = []
    gc.disable()  # no collection of the measured program's heap inside the probe
    try:
        for _ in range(3):
            start = perf_counter()
            total = Fraction(0)
            for i in range(1, 3000):
                total += Fraction(1, i)
            times.append(perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)
