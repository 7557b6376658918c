"""Machine-speed reference for the benchmark's timings.

The host this benchmark was tuned on runs a process at two or three distinct
speeds that change every 5 to 50 seconds, a factor of about 1.6 apart
(other tenants' load on the shared cores).  A timing of vharvest taken in a
slow stretch is then 60 % longer than one taken in a fast stretch, and the
median of a 20-second run moved by up to 30 % from run to run.  Two kinds of
vharvest work timed next to each other slow down together: their ratio moved
by 2 % over the same stretches.  Vectorized numpy work and scalar Python
work slow down by different factors, so the reference does some of each.

Every batch is timed between two runs of ``reference()``, a fixed
computation of the same kinds as vharvest's hot paths (and, when the batch
is one long call, with more runs during it: see workloads.py).  It lives
here, not in the package, so that no change to vharvest changes it.  A time
``t`` measured with reference runs of mean ``r`` seconds is reported as
``t * NOMINAL_S / r``: seconds at the speed at which ``reference()`` takes
``NOMINAL_S`` (about the fast state of the 2-vCPU Intel Xeon host the
benchmark was tuned on).  Raw times are kept alongside.
"""

from __future__ import annotations

import cmath
import math
from time import perf_counter

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import wofz

NOMINAL_S = 0.035

_X, _W = leggauss(15)


def _integrand(k: np.ndarray, d: float, a: float) -> np.ndarray:
    b = k / math.sqrt(2.0)
    kernel = (np.exp(-a * a) * (wofz(-b + 1j * a) - wofz(b + 1j * a))
              + 2.0 * np.exp(-b * b - 2j * a * b))
    x = k * d
    j0 = np.sin(x) / x
    j2 = (3.0 / (x * x) - 1.0) * j0 - 3.0 * np.cos(x) / (x * x)
    u = (1e-3 * k) ** 2
    return k ** 3 * (j0 + j2) * kernel / (4.0 * u + 9.0) ** 6


def reference() -> float:
    """A fixed amount of work in two parts, as vharvest's workloads mix them:
    vectorized panel sums (``_panels``) and scalar complex arithmetic with
    list bookkeeping (``_scalar``).  Returns a sum so nothing is skipped."""
    return _panels() + _scalar()


def _scalar() -> float:
    # one Faddeeva call per node, as in the unequal-gap time integral, then
    # the sort-and-resum loop of a panel list
    total = 0.0
    for i in range(5500):
        z = complex(0.3 + i * 1e-3, 0.5)
        total += cmath.exp(-z * z + cmath.log(complex(wofz(z)))).real
    panels = [(float(i % 17), i * 0.5) for i in range(400)]
    for _ in range(70):
        panels.sort(key=lambda p: p[0])
        total += sum(p[1] for p in panels[:100])
        panels = panels[100:] + [(p[0] * 0.9, p[1]) for p in panels[:100]]
    return total


def _panels() -> float:
    # 8 integrals over 200 panels, each with 8 passes that evaluate the 40
    # panels of largest error estimate and re-sort the panel list
    total = 0.0
    for rep in range(8):
        edges = np.linspace(1e-3, 38.0, 201)
        panels = list(zip(edges[:-1].tolist(), edges[1:].tolist(), [0.0] * 200, [0.0] * 200))
        for _ in range(8):
            lo = np.array([p[0] for p in panels[-40:]])
            hi = np.array([p[1] for p in panels[-40:]])
            mid = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            f = _integrand(mid[:, None] + half[:, None] * _X[None, :], 3.0 + rep, 0.7)
            val = (f * _W).sum(axis=1) * half
            err = np.abs(val - f[:, 7] * 2.0 * half)
            panels = panels[:-40] + list(zip(lo.tolist(), hi.tolist(),
                                             val.real.tolist(), err.tolist()))
            panels.sort(key=lambda p: p[3])
        total += sum(p[2] for p in panels)
    return total


def measure() -> float:
    """Seconds one run of ``reference()`` takes now."""
    t0 = perf_counter()
    reference()
    return perf_counter() - t0
