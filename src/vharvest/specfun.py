"""Overflow-safe special functions and quadrature for Gaussian-damped
oscillatory integrands on the semi-infinite momentum axis.

The momentum integrals of the harvesting terms all look like

    integral_0^inf dk  k^p * exp(-w*(k + shift)^2) * oscillations(k*d, k*t) * rational(k)

with w = T^2/2.  The time kernel contains complex complementary error
functions whose naive evaluation overflows once T*k > ~38; everything here
keeps exponents combined analytically so only non-positive real parts are
ever exponentiated.  All functions are pure and accept numpy arrays where
it matters.

Rounding model: an integrand returns (value, magnitude) per node, with
magnitude >= |value| such that 50 eps x magnitude bounds the node's rounding
for its arguments.  It adds the parts that cancel in the value, each weighted
by 1 + the size of its exponent's parts (an exponent of size s is rounded
to ~eps s), plus the Faddeeva routine's own error; products propagate as
m(ab) = m(a)|b| + |a|m(b).  GK15's roundoff floor, 50 eps times the
integral of the magnitude (QUADPACK; Piessens et al., 1983), is the one
place that rounding enters the error estimates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import wofz as _wofz

__all__ = [
    "QuadratureConvergenceError",
    "QuadratureResult",
    "DampedKernelSpec",
    "scaled_time_kernel",
    "spherical_bessel_j",
    "spherical_bessel_j0_plus_j2",
    "integrate_damped",
]

_SQRT2 = math.sqrt(2.0)
_GAUSS_DEAD = 750.0        # exp(-750) < 1e-300: Gaussian tail treated as dead


class QuadratureConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best available estimate in ``result``.
    """

    def __init__(self, message: str, result: "QuadratureResult"):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    abs_error_estimate: float
    evaluations: int
    abs_integral: float = 0.0  # integral of the magnitude (>= |f|): the scale of its rounding

    def __post_init__(self):
        if not (self.abs_error_estimate >= 0.0):
            raise ValueError("abs_error_estimate must be >= 0")
        if self.evaluations <= 0:
            raise ValueError("evaluations must be positive")


@dataclass(frozen=True)
class DampedKernelSpec:
    """Semi-infinite integrand with a known Gaussian envelope.

    damping_width: w such that the Gaussian part of the integrand is bounded
        by exp(-w k^2); for the harvesting kernels w = T^2/2.
    oscillation_lengths: periods in k of every oscillatory factor (2*pi/d for
        the spatial kernel, 2*pi/t_ba for the time phase).  Empty if the
        integrand does not oscillate.
    integrand: vectorized callable on arrays of k >= 0, returning the arrays
        (value, magnitude) of the module's rounding model.
    algebraic_cutoff: the erfc wings of the time kernel decay only
        algebraically; when nothing oscillates, integrate those out to this k
        instead of stopping at the Gaussian truncation point.
    tail_oscillation_length: period that survives past the Gaussian
        truncation point (the spatial kernel's 2*pi/d).
    """

    damping_width: float
    oscillation_lengths: tuple[float, ...]
    integrand: Callable[[np.ndarray], np.ndarray]
    algebraic_cutoff: float | None = None
    tail_oscillation_length: float | None = None

    def __post_init__(self):
        if not (self.damping_width > 0.0):
            raise ValueError("damping_width must be positive")
        if any(not (ell > 0.0) for ell in self.oscillation_lengths):
            raise ValueError("oscillation_lengths must all be positive")
        if self.tail_oscillation_length is not None and not (self.tail_oscillation_length > 0.0):
            raise ValueError("tail_oscillation_length must be positive")


# ----------------------------------------------------------------------------
# The time kernel
# ----------------------------------------------------------------------------

def scaled_time_kernel(k, t_ba: float, T: float, *, d_omega: float):
    """The ordered double time integral of two Gaussian switchings of width
    T without overflow, and its magnitude: the time factor of M.

    With a = |t_ba| / (sqrt(2) T), b = T k / sqrt(2) and
    c = sign(t_ba) T d_omega / (2 sqrt(2)), sign(0) = +1,

        kernel = e^{-a^2} [conj w(b - c + ia) - w(b + c + ia)]
                 + 2 e^{-(b+c)^2 - 2ia(b+c)}

    through the Faddeeva function w in its upper half plane, so only
    non-positive real exponents are exponentiated.  The integral of both
    orderings against exp(i(Omega_A t_1 + Omega_B t_2 - k (t_1 - t_2))),
    with t_ba = t_B - t_A and d_omega = Omega_A - Omega_B, is pi T^2/2
    exp(-T^2 Omega^2/2 + i Omega (t_A + t_B)) times the kernel, Omega the
    mean gap (``harvesting.time_integral_closed``).  At c = 0 the kernel is
    exp(-T^2 k^2/2) [E(k,t_ba) + E(k,-t_ba)], E(k,t) = exp(i k t)
    erfc((i T^2 k + t)/(sqrt(2) T)), even in t_ba, and the reflection
    w(-conj z) = conj w(z) (A&S 7.1.12) turns its wings into
    -2i Im w(b + ia), one Faddeeva call per node.  Accepts a scalar or
    array k >= 0 and returns (value, magnitude) of its shape: the wings
    weigh 2 + a^2 (one for the Faddeeva routine), the Gaussian 1 + its
    exponent's parts.
    """
    if T <= 0.0:
        raise ValueError("switching width T must be positive")
    k_arr = np.asarray(k, dtype=float)
    a = abs(t_ba) / (_SQRT2 * T)
    b = T * k_arr / _SQRT2
    c = T * d_omega / (2.0 * _SQRT2)
    if t_ba < 0.0:
        c = -c
    e_a = np.exp(-a * a)
    if c == 0.0:
        w = _wofz(b + 1j * a)
        wings, wings_mag = e_a * (-2j * w.imag), 2.0 * e_a * (2.0 + a * a) * np.abs(w)
    else:
        w_lo, w_hi = _wofz(b - c + 1j * a), _wofz(b + c + 1j * a)
        wings = e_a * (w_lo.conj() - w_hi)
        wings_mag = e_a * (2.0 + a * a) * (np.abs(w_lo) + np.abs(w_hi))
    bc = b + c
    gauss = 2.0 * np.exp(-bc * bc - 2j * a * bc)
    out = wings + gauss
    mag = wings_mag + np.abs(gauss) * (1.0 + bc * bc + 2.0 * a * np.abs(bc))
    return (complex(out), float(mag)) if k_arr.ndim == 0 else (out, mag)


# ----------------------------------------------------------------------------
# Spherical Bessel functions, l = 0..4
# ----------------------------------------------------------------------------

_DOUBLE_FACT = {0: 1.0, 1: 3.0, 2: 15.0, 3: 105.0, 4: 945.0}  # (2l+1)!!


def _bessel_series(l: int, x: np.ndarray) -> np.ndarray:
    # Maclaurin series; below the x=5 switch point the largest term never
    # exceeds ~30x the result, so double precision keeps ~1e-14 relative.
    x2 = x * x
    term = np.ones_like(x)
    acc = np.ones_like(x)
    for m in range(1, 40):
        term = term * (-0.5 * x2) / (m * (2 * l + 2 * m + 1))
        acc = acc + term
        if np.all(np.abs(term) <= 1e-18 * np.abs(acc)):
            break
    return np.where(x > 0, x, 0.0) ** l / _DOUBLE_FACT[l] * acc if l else acc


def _bessel_trig(l: int, s: np.ndarray, c: np.ndarray, u: np.ndarray) -> np.ndarray:
    # closed forms in s = sin x, c = cos x and u = 1/x
    if l == 0:
        return s * u
    if l == 1:
        return s * u * u - c * u
    if l == 2:
        return (3.0 * u ** 3 - u) * s - 3.0 * u ** 2 * c
    if l == 3:
        return (15.0 * u ** 4 - 6.0 * u ** 2) * s - (15.0 * u ** 3 - u) * c
    return (105.0 * u ** 5 - 45.0 * u ** 3 + u) * s - (105.0 * u ** 4 - 10.0 * u ** 2) * c


def spherical_bessel_j(l: int, x):
    """Spherical Bessel function j_l(x) for l = 0..4, x >= 0.

    Series below x = 5, closed trigonometric forms above; the switch point is
    where both sides hold ~1e-14 relative accuracy for every supported l.
    """
    if l not in (0, 1, 2, 3, 4):
        raise ValueError(f"spherical_bessel_j supports l = 0..4, got {l}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("spherical_bessel_j requires x >= 0")
    small = x_arr < 5.0
    out = np.empty_like(x_arr)
    if np.any(small):
        out[small] = _bessel_series(l, x_arr[small])
    if np.any(~small):
        xl = x_arr[~small]
        out[~small] = _bessel_trig(l, np.sin(xl), np.cos(xl), 1.0 / xl)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out)
    return out


# Maclaurin coefficients of 3 j_1(x)/x in y = x^2, highest power first (Horner
# order): c_0 = 1, c_m = c_{m-1} (-1/2) / (m (2m+3)).  The twentieth term is
# below 1e-19 at the x = 5 switch point.
_J0J2_SERIES = tuple(reversed(list(itertools.accumulate(
    range(1, 20), lambda c, m: c * -0.5 / (m * (2 * m + 3)), initial=1.0))))


def spherical_bessel_j0_plus_j2(x):
    """j_0(x) + j_2(x) = 3 j_1(x) / x for x >= 0, the EM dipole spatial
    kernel, and its magnitude.

    Below x = 5 the Maclaurin series of 3 j_1(x)/x, Horner in y = x^2,
    within ~4e-16 absolute of the exact value; its terms alternate in sign,
    so the same Horner loop at -y sums their sizes, the magnitude.  Above
    x = 5 the closed form 3 (sin x / x - cos x) / x^2, with magnitude
    3 (|sin x| / x + |cos x|) / x^2.  Returns (value, magnitude); scalars
    give floats.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("spherical_bessel_j0_plus_j2 requires x >= 0")
    small = x_arr < 5.0
    out = np.empty_like(x_arr)
    mag = np.empty_like(x_arr)
    if np.any(small):
        y = x_arr[small] ** 2
        y = np.stack((y, -y))
        acc = np.full_like(y, _J0J2_SERIES[0])
        for coef in _J0J2_SERIES[1:]:
            acc *= y
            acc += coef
        out[small], mag[small] = acc
    if not np.all(small):
        xl = x_arr[~small]
        s, c = np.sin(xl), np.cos(xl)
        out[~small] = 3.0 * (s / xl - c) / (xl * xl)
        mag[~small] = 3.0 * (np.abs(s) / xl + np.abs(c)) / (xl * xl)
    return (float(out), float(mag)) if x_arr.ndim == 0 else (out, mag)


# ----------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ----------------------------------------------------------------------------

# 15-point Kronrod extension of 7-point Gauss (QUADPACK dqk15)
_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


# the roundoff floor of one GK15 panel, per unit of its integral of the magnitude
_ROUNDOFF = 50.0 * np.finfo(float).eps


def _gk15_panels(f, lo: np.ndarray, hi: np.ndarray):
    """Vectorized GK15 on a batch of panels of f -> (value, magnitude).

    Returns (integral, error_estimate, abs_integral, n_evals) per panel, with
    the QUADPACK error heuristic; abs_integral integrates the magnitude, so
    the roundoff floor counts the integrand's rounding.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _XGK[None, :]
    fv, fm = f(nodes.ravel())
    fv = np.asarray(fv).reshape(nodes.shape)
    resk = (fv * _WGK[None, :]).sum(axis=1) * half
    resg = (fv[:, 1::2] * _WG[None, :]).sum(axis=1) * half
    resabs = (np.reshape(fm, nodes.shape) * _WGK[None, :]).sum(axis=1) * np.abs(half)
    fmean = resk / (2.0 * half)
    resasc = (np.abs(fv - fmean[:, None]) * _WGK[None, :]).sum(axis=1) * np.abs(half)
    err = np.abs(resk - resg)
    nonzero = resasc > 0.0
    scaled = np.ones_like(err)
    scaled[nonzero] = np.minimum(1.0, (200.0 * err[nonzero] / resasc[nonzero]) ** 1.5)
    err = np.where(nonzero, resasc * scaled, err)
    # roundoff floor
    err = np.maximum(err, _ROUNDOFF * resabs)
    return resk, err, resabs, fv.size


def _adaptive_gk(f, breakpoints: np.ndarray, atol: float, rtol: float,
                 max_panels: int = 4000):
    """Adaptive GK15 over the panel decomposition given by breakpoints.

    Panels live in parallel arrays (QUADPACK-style bookkeeping); each pass
    splits the n // 8 worst panels (at least 1, at most 16), chosen by a
    stable sort on the error estimate, and appends their halves.

    It stops when the summed error meets tol = max(atol, rtol |value|), at
    max_panels, or at the roundoff floor: every panel's error is at least
    50 eps times its integral of the integrand's magnitude, so once that
    floor, summed over the panels, reaches tol, no split can meet tol.  The
    driver then stops as soon as the error above the floor is within tol, as
    QUADPACK reports roundoff (ier = 2), instead of splitting on to
    max_panels.  The returned error still includes the floor, so a caller
    sees that tol was missed.
    """
    lo = np.asarray(breakpoints[:-1], dtype=float)
    hi = np.asarray(breakpoints[1:], dtype=float)
    val, err, absl, evals = _gk15_panels(f, lo, hi)
    while True:
        total = val.sum()
        tol = max(atol, rtol * abs(total))
        err_sum = err.sum()
        if err_sum <= tol:
            break
        floor = _ROUNDOFF * absl.sum()
        if floor >= tol and err_sum - floor <= tol:
            break
        if lo.size >= max_panels:
            break
        order = np.argsort(err, kind="stable")
        n_split = min(16, max(1, lo.size // 8))
        keep, worst = order[:-n_split], order[-n_split:]
        a, b = lo[worst], hi[worst]
        m = 0.5 * (a + b)
        new_lo = np.column_stack((a, m)).ravel()
        new_hi = np.column_stack((m, b)).ravel()
        new_val, new_err, new_abs, n = _gk15_panels(f, new_lo, new_hi)
        evals += n
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        val = np.concatenate((val[keep], new_val))
        err = np.concatenate((err[keep], new_err))
        absl = np.concatenate((absl[keep], new_abs))
    return val.sum(), float(err.sum()), float(absl.sum()), evals


def _wynn_epsilon(partial_sums: Sequence[complex]):
    """Wynn epsilon extrapolation of a sequence of partial sums.

    Returns (limit, error_estimate).  Even table columns approximate the
    limit; odd columns are auxiliary reciprocals.  Differences below the
    roundoff floor of the sequence terminate the table, otherwise 1/diff
    amplifies noise into garbage.  Each column is one array operation; the
    stop rules look at its differences in order, as a scan would.
    """
    s = np.asarray(partial_sums, dtype=complex)
    if s.size < 3:
        return complex(s[-1]), float(abs(s[-1] - s[0]))
    scale = float(np.abs(s).max())
    if scale == 0.0:
        return 0.0 + 0.0j, 0.0
    floor = 4.0 * np.finfo(float).eps * scale
    prev = np.zeros(s.size + 1, dtype=complex)
    curr = s
    best = complex(s[-1])
    best_err = abs(best - complex(s[-2]))
    col = 0
    while curr.size >= 2:
        diff = curr[1:] - curr[:-1]
        if col % 2 == 0:
            adiff = np.abs(diff)
            hit = np.flatnonzero(adiff <= floor)
            if hit.size:
                j = hit[0]
                if adiff[j] <= best_err:
                    best, best_err = complex(curr[j + 1]), max(float(adiff[j]), floor)
                break
        elif not diff.all():
            break
        prev, curr = curr, prev[1:curr.size] + 1.0 / diff
        col += 1
        if col % 2 == 0 and curr.size >= 2:
            cand_err = abs(complex(curr[-1]) - complex(curr[-2]))
            if cand_err < best_err:
                best, best_err = complex(curr[-1]), cand_err
    return best, max(best_err, floor)


def _oscillatory_tail(f, start: float, step: float, atol: float, rtol: float,
                      max_panels: int = 80):
    """Sum f over [start, inf) where f oscillates with half-period ~step.

    The error is the extrapolation's plus the panels' own: each partial sum
    carries the errors of its panels, their roundoff floors included, which
    the Wynn estimate cannot see.
    """
    lo = start + step * np.arange(max_panels)
    hi = lo + step
    vals, errs, absl, evals = _gk15_panels(f, lo, hi)
    sums = np.cumsum(vals)
    # extrapolate once the partial sums start alternating around the limit
    limit, err = _wynn_epsilon(sums[4:])
    return limit, err + float(errs.sum()), float(absl.sum()), evals


def _smooth_tail(f, start: float, cutoff: float, atol: float, rtol: float):
    """Integrate a smooth non-oscillatory tail on [start, cutoff], panels
    geometric in k."""
    if cutoff <= start:
        return 0.0 + 0.0j, 0.0, 0.0, 0
    n_dec = max(1, int(math.ceil(math.log10(cutoff / start))))
    return _adaptive_gk(f, np.geomspace(start, cutoff, 8 * n_dec + 1), atol, rtol)


def integrate_damped(spec: DampedKernelSpec, atol: float = 1e-16,
                     rtol: float = 1e-10, max_panels: int = 4000) -> QuadratureResult:
    """Integrate spec.integrand over [0, inf).

    The Gaussian envelope is dead (< 1e-300) beyond k_hi = sqrt(750/w); the
    finite part [0, k_hi] is integrated adaptively with panels seeded at half
    periods of the fastest oscillation.  Whatever survives past k_hi (the
    algebraically decaying erfc wings) is summed either by Wynn-epsilon
    extrapolation over half-period panels (oscillatory case) or by geometric
    panels out to the rational-kernel cutoff (smooth case).

    Raises QuadratureConvergenceError (carrying the best estimate) if the
    requested tolerance is unreachable.
    """
    f = spec.integrand
    k_hi = math.sqrt(_GAUSS_DEAD / spec.damping_width)

    pts = {0.0, k_hi}
    # resolve the low-k structure of the k^p * rational prefactor
    pts.update(np.geomspace(k_hi * 1e-4, k_hi, 17))
    if spec.oscillation_lengths:
        h = min(spec.oscillation_lengths) / 2.0
        n_osc = int(k_hi / h)
        if n_osc > 1:
            max_seed = 600
            stride = max(1, int(math.ceil(n_osc / max_seed)))
            pts.update(np.arange(1, n_osc + 1)[::stride] * h)
    breakpoints = np.array(sorted(pts))

    value, err, absint, evals = _adaptive_gk(f, breakpoints, 0.5 * atol, 0.5 * rtol,
                                             max_panels=max_panels)

    # Tail policy: a declared surviving oscillation is summed by
    # extrapolation; otherwise a declared algebraic cutoff gets smooth
    # geometric panels; otherwise nothing survives past k_hi.
    tail = None
    if spec.tail_oscillation_length is not None:
        # keep tail panels comparable to the head
        h = min(spec.tail_oscillation_length / 2.0, k_hi)
        tail = _oscillatory_tail(f, k_hi, h, 0.5 * atol, 0.5 * rtol)
    elif spec.algebraic_cutoff is not None and spec.algebraic_cutoff > k_hi:
        tail = _smooth_tail(f, k_hi, spec.algebraic_cutoff, 0.5 * atol, 0.5 * rtol)
    if tail is not None:
        t_value, t_err, t_abs, t_evals = tail
        value += t_value
        err += t_err
        absint += t_abs
        evals += t_evals

    result = QuadratureResult(value=value, abs_error_estimate=float(err),
                              evaluations=int(evals), abs_integral=float(absint))
    if err > max(atol, rtol * abs(value)) and err > 1e3 * np.finfo(float).eps * absint:
        raise QuadratureConvergenceError(
            f"quadrature stalled at abs error {err:.3e} for value {value:.6e}", result)
    return result
