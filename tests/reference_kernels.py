"""Straightforward forms of engine functions, kept as the references that
their versions in ``vharvest.specfun`` must match bit for bit
(``test_trimmed_kernels.py``): the time kernel with its Faddeeva function,
the Gauss-Kronrod reduce of one row of panels on the module's rule
(``specfun._XGK``, ``_WGK`` and ``_WG``), and the value of
``spherical_bessel_j0``.  Each runs its array operations as the formulas
read, one temporary per step; the engine's versions make fewer calls on the
same arithmetic.  Also one term's integrand alone, the row a group gives it
(``integrand``)."""

import functools
import itertools
import math
import operator

import numpy as np
from scipy.special import wofz

from vharvest import harvesting
from vharvest.specfun import _ROUNDOFF, _WG, _WGK, _XGK, _integrands

SQRT2 = math.sqrt(2.0)
W_FAR = 7.0
W_COEFFS = tuple(itertools.accumulate(range(1, 39, 2), operator.mul, initial=1.0))
W_RADII = tuple(math.sqrt(0.5 * (c * (2 * n + 1) * 4.0 / np.finfo(float).eps) ** (1.0 / (n + 1)))
                for n, c in enumerate(W_COEFFS))


def faddeeva(x, a):
    r2 = x * x + a * a
    far = r2 >= W_FAR * W_FAR
    n_far = np.count_nonzero(far)
    if n_far == 0:
        return wofz(x + 1j * a)
    mixed = n_far < far.size
    r_min = math.sqrt((r2[far] if mixed else r2).min())
    n = max(2, 1 + sum(r > r_min for r in W_RADII))
    u = 1.0 / ((x[far] if mixed else x) + 1j * a)
    y = 0.5 * u * u
    acc = W_COEFFS[n - 1] * y + W_COEFFS[n - 2]
    for coef in reversed(W_COEFFS[:n - 2]):
        acc *= y
        acc += coef
    w = (1j / math.sqrt(math.pi)) * u * acc
    if not mixed:
        return w
    out = np.empty(far.shape, dtype=complex)
    out[far] = w
    out[~far] = wofz(x[~far] + 1j * a)
    return out


def scaled_time_kernel(k, t_ba, T, *, d_omega):
    k_arr = np.asarray(k, dtype=float)
    a = abs(t_ba) / (SQRT2 * T)
    b = T * k_arr / SQRT2
    c = T * d_omega / (2.0 * SQRT2)
    if t_ba < 0.0:
        c = -c
    e_a = np.exp(-a * a)
    w_lo = faddeeva(b - c, a)
    if c == 0.0:
        out, mag = (-2j * e_a) * w_lo.imag, e_a * (2.0 + a * a) * (2.0 * np.abs(w_lo))
    else:
        w_hi = faddeeva(b + c, a)
        out = e_a * (w_lo.conj() - w_hi)
        mag = e_a * (2.0 + a * a) * (np.abs(w_lo) + np.abs(w_hi))
    bc = b + c
    if np.count_nonzero(bc * bc < 750.0):
        gauss = 2.0 * np.exp(-bc * bc - 2j * a * bc)
        out = out + gauss
        mag = mag + np.abs(gauss) * (1.0 + bc * bc + 2.0 * a * np.abs(bc))
    return (complex(out), float(mag)) if k_arr.ndim == 0 else (out, mag)


def gk15_reduce_row(fv, fm, half):
    # one row: (panels x nodes,) node values and magnitudes, half (panels,)
    shape = (half.size, _XGK.size)
    fv = np.reshape(fv, shape)
    habs = np.abs(half)
    sumk = fv @ _WGK
    resk = sumk * half
    resg = (fv[..., 1::2] @ _WG) * half
    resabs = (np.reshape(fm, shape) @ _WGK) * habs
    err = np.abs(resk - resg)
    big, floor = 200.0 * err, _ROUNDOFF * resabs
    dev = np.abs(fv - 0.5 * sumk[..., None])
    resasc = (dev @ _WGK) * habs
    nonzero = resasc > 0.0
    ratio = np.divide(big, resasc, out=np.zeros_like(err), where=nonzero)
    err = np.where(nonzero, resasc * np.minimum(1.0, ratio ** 1.5), err)
    return resk, np.maximum(err, floor), resabs


def spherical_bessel_j0(x):
    # sin x / x through the closed form s u, u = 1/x, at x >= 1e-8, and 1 below
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    xl = np.maximum(x_arr, 1e-8)
    s, u = np.sin(xl), 1.0 / xl
    out = s * u
    out[x_arr < 1e-8] = 1.0
    return out


def integrand(share, clock, d):
    # k -> (value, magnitude) of one term's whole integrand (share, clock, d),
    # the row a group gives its member
    _, p, a0, T, kernel = share
    time = functools.partial(harvesting._time, T)
    return lambda k: tuple(x.reshape(k.shape) for x in next(
        _integrands(harvesting._scale(p, a0), k, kernel, [(clock, d)], time))[1])
