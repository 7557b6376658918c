"""Overflow-safe special functions and quadrature for Gaussian-damped
oscillatory integrands on the semi-infinite momentum axis.

The momentum integrals of the harvesting terms all look like

    integral_0^inf dk  k^p * exp(-w*(k + shift)^2) * oscillations(k*d, k*t) * rational(k)

with w = T^2/2.  The time kernel contains complex complementary error
functions whose naive evaluation overflows once T*k > ~38; everything here
keeps exponents combined analytically so only non-positive real parts are
ever exponentiated.  The spatial kernels are j_0 (UdW and derivative
couplings) and j_0 + j_2 = 3 j_1/x (EM dipole), each with its magnitude;
the self-check reads every j_l from scipy.  All functions are pure and accept
numpy arrays where it matters.  Integrands that differ in their clock (a
grid's t_BA) and separation d are integrated as the members of one group
(``integrate_damped_group``): on one head panel set, so each pass evaluates
the time factors of all the clocks as one (clocks, nodes) array in one call,
each spatial kernel once, reduces the members without one as one stack and
those with d > 0 by matrix products per panel of kernel(k d) and the clocks
(|f - mean| only where it can move QUADPACK's error).  A pair alone keeps
every bit of its head's rows; a row of such a block agrees with the row
alone within its panel's roundoff floor (its error estimate within 200
floors), and the figures agree within their errors (``tests/golden``).

Every member's head stops at the group's live edge k_live, where the
Gaussian part is e^-60 below its peak; the caller's rigorous bound on that
part past the edge joins its error.  What is left past the edge, the wings,
is analytic on Re k >= k_live: the time factor's wings (the Faddeeva
function's far-field series, a polynomial in 1/z), the scale (poles on the
imaginary axis) and the kernel's waves e^{+-ikd} times algebraic factors.
So, by Cauchy's theorem, a member with d > 0 takes its wings along the rays
k0 +- iy, where they decay as e^{-yd}, by Gauss-Laguerre in y d (``_rays``,
one pass for the group; Huybrechs and Vandewalle, SIAM J. Numer. Anal. 44,
2006), in place of QUADPACK's QAWF on the real axis.  The rays start where
k d >= 15; the stretch before that, and the wings of d = 0, which do not
oscillate, are integrated on the real axis on geometric panels.  A ray
member's integral of the magnitude is its real-axis envelope's, over the
span that QAWF would have summed.

The rule on the real axis is QUADPACK's 31-point Gauss-Kronrod rule
(dqk31; Piessens et al., 1983; ``tools/gauss_kronrod.py`` computes its
table), whose 15-point Gauss part is exact to degree 29: its panels span
four half periods of the fastest oscillation (the head's seeds and the
fixed panel sets), geometric stretches take two panels a decade, and the
rays' envelope panels a ratio of up to 2.25.

Rounding model: an integrand returns (value, magnitude) per node, with
magnitude >= |value| such that 50 eps x magnitude bounds the node's rounding
for its arguments.  It adds the parts that cancel in the value, each weighted
by 1 + the size of its exponent's parts (an exponent of size s is rounded
to ~eps s), plus the error of the Faddeeva function (scipy's ``wofz`` below
|z| = 7, off by up to ~110 eps, and its asymptotic series from there, within
2.4 eps); products propagate as m(ab) = m(a)|b| + |a|m(b).  A subnormal
value (the time kernel's Gaussian near (b+c)^2 ~ 730) rounds in absolute
units of 2^-1074 instead: it may be a few of them off where 50 eps x
magnitude is far below one, which is negligible in any integral.  A
panel's roundoff floor, 50 eps times the integral of the magnitude
(QUADPACK), is the one place that rounding enters the error estimates.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import wofz as _wofz

__all__ = [
    "QuadratureConvergenceError",
    "QuadratureResult",
    "DampedKernelSpec",
    "scaled_time_kernel",
    "spherical_bessel_j0",
    "spherical_bessel_j0_plus_j2",
    "integrate_damped_group",
    "integrate_fixed_group",
]

_SQRT2 = math.sqrt(2.0)
_GAUSS_DEAD = 750.0        # exp(-750) < 1e-300: Gaussian tail treated as dead
_MAX_HALF_PERIODS = 2.0 ** 53  # seed counts up to here are exact doubles and int64s
_SEED_DEPTH = 1e-4         # the geometric head seeds reach down to this share of k_hi
_PANEL_HALF_PERIODS = 4    # a GK31 panel on the real axis spans this many half periods
_RAY_X = 15.0              # wings take rays from where k d reaches this
_SPAN_HALF_PERIODS = 80    # a ray member's magnitude spans this many half periods past k_hi
_ENVELOPE_RATIO = 2.25     # the ratio of a geometric GK31 panel of that span, at most
_BLOCK_NODES = 16384       # nodes of one block of a head pass's members (a measured budget)


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
    """Semi-infinite integrands with a known Gaussian envelope, one per
    member, integrated on one head panel set.

    damping_width: w such that the Gaussian part of the integrand is bounded
        by exp(-w k^2); for the harvesting kernels w = T^2/2.
    oscillation_lengths: periods in k of the members' time factors (the
        time phase's 2*pi/t_ba).
    integrand: vectorized callable on arrays of k >= 0 (and, with wings,
        complex k with Re k >= live_edge): the scale by which every
        member's product is multiplied last.
    members: (clock, d) per member, each integrated to its own tolerance:
        kernel(k d) times its clock's time factor, then times the scale.
    time: callable (clocks, k) -> (value, magnitude) time factors, a row each.
    kernel: callable x -> (value, magnitude), the spatial factor at x = k d
        for d > 0; it oscillates with period 2*pi/d in k.  None: no spatial
        factor.
    cutoff: where the scale has rolled off: a member's wings that do not
        oscillate (d = 0) are integrated out to this k.
    live_edge: k past which every member's Gaussian part is e^-60 below its
        peak, where the head stops; inf: no edge, the head runs to k_hi.
    edge_bounds: per member, a rigorous bound on the integral of |f|'s
        Gaussian part over [live_edge, inf) (all of it, without wings),
        added to its error, or () for none.
    wings: callable (clocks, k) -> (W(k), W(conj k)) on a complex
        (clocks, nodes) array k, W a clock's time factor less the Gaussian
        part, analytic on Re k >= live_edge, where that part is what the
        time factor has left; or None: nothing survives past the edge.
    wave: callable on complex x -> A(x), algebraic, such that kernel(x) =
        2 Re(e^{ix} A(x)) at real x: the rays of the wings.
    """

    damping_width: float
    oscillation_lengths: tuple[float, ...]
    integrand: Callable[[np.ndarray], object]
    members: tuple
    time: Callable
    kernel: Callable | None = None
    cutoff: float = 0.0
    live_edge: float = math.inf
    edge_bounds: tuple = ()
    wings: Callable | None = None
    wave: Callable | None = None

    def __post_init__(self):
        if not (self.damping_width > 0.0):
            raise ValueError("damping_width must be positive")
        if any(not (ell > 0.0) for ell in self.oscillation_lengths):
            raise ValueError("oscillation_lengths must all be positive")
        if not self.members or any(clock is None or not (d >= 0.0) for clock, d in self.members):
            raise ValueError("a spec needs members, each with a clock and d >= 0")
        if not (self.live_edge > 0.0) or len(self.edge_bounds) not in (0, len(self.members)):
            raise ValueError("live_edge must be positive, with one bound per member")
        if self.wings and not (self.live_edge < math.inf and (
                self.kernel is None or self.wave is not None)):
            raise ValueError("wings need a live edge, and a kernel its wave")


# ----------------------------------------------------------------------------
# The time kernel
# ----------------------------------------------------------------------------

# w(z) at |z| >= _W_FAR by its asymptotic series (DLMF 7.12.1 for
# erfc(-iz)), (i/(sqrt(pi) z)) sum_{n<N} (2n-1)!!/(2z^2)^n: the coefficients
# (2n-1)!! and, for N = 1..20, the radius from which the first omitted term
# (2N-1)!!/(2r^2)^N is at most eps/4, so that N terms suffice there (20 at
# |z| = 7, 12 at 10, 7 past 24, 3 past 1e4)
_W_FAR = 7.0
_W_COEFFS = tuple(itertools.accumulate(range(1, 39, 2), operator.mul, initial=1.0))
_W_RADII = tuple(math.sqrt(0.5 * (c * (2 * n + 1) * 4.0 / np.finfo(float).eps) ** (1.0 / (n + 1)))
                 for n, c in enumerate(_W_COEFFS))
# the loops' operands as 0-d complex arrays: a Python float costs a conversion per call
_W_TERMS = tuple(np.array(complex(c)) for c in _W_COEFFS)
_ROW_BLOCK = 8192  # a column of clocks goes in blocks of rows of at most this many values


def _w_far(z, r2_min):
    # w(z) at |z|^2 >= r2_min >= 49 by its asymptotic series in Horner form,
    # with the terms r2_min needs: a polynomial in 1/z, analytic off z = 0.
    # r2_min per row of z (axis 0): the rows in descending order of their
    # terms, each step of Horner on the leading rows that need its term
    lead = None  # per step, how many rows need its term
    if isinstance(r2_min, np.ndarray):
        n = np.searchsorted(_W_RADII[::-1], np.sqrt(r2_min), "right")
        order = np.argsort(n, kind="stable")
        z, n = z[order], np.maximum(2, len(_W_RADII) + 1 - n[order])
        lead, top = np.count_nonzero(n[:, None] >= np.arange(n[0] + 1), axis=0).tolist(), int(n[0])
    else:
        top = max(2, len(_W_RADII) + 1 - bisect.bisect_right(_W_RADII[::-1], math.sqrt(r2_min)))
    u = 1.0 / z
    y = 0.5 * u * u
    acc = _W_COEFFS[top - 1] * y + _W_COEFFS[top - 2]  # from two terms
    for coef in reversed(_W_TERMS[:top - 2] if lead is None else ()):
        acc *= y
        acc += coef
    for j in range(top - 3, -1, -1) if lead else ():
        go, new = lead[j + 3], lead[j + 2]
        rows = acc[:go]
        rows *= y[:go]
        rows += _W_TERMS[j]
        if new > go:  # rows that start here, from two terms
            acc[go:new] = _W_COEFFS[j + 1] * y[go:new] + _W_COEFFS[j]
    w = (1j / math.sqrt(math.pi)) * u * acc
    if lead:
        w[order] = w.copy()
    return w


def _faddeeva(x, a):
    """The Faddeeva function w(x + ia) for a real array x and a scalar
    a >= 0.  Where |z| >= 7 its asymptotic series in Horner form, with the
    terms the call's smallest such |z| needs (within 2.4 eps of 40-digit
    mpmath, where ``wofz`` is off by up to ~110 eps), elsewhere scipy's
    ``wofz``.  A call whose arguments all lie on one side takes no mask.  A
    column of a: rows with every |z| >= 7 in one series, others alone."""
    r2 = x * x + a * a
    if isinstance(a, np.ndarray):
        far, out = (r2 >= _W_FAR * _W_FAR).all(axis=1), np.empty(x.shape, dtype=complex)
        if far.any():
            out[far] = _w_far(x[far] + 1j * a[far], r2[far].min(axis=1))
        for i in (~far).nonzero()[0]:
            out[i] = _faddeeva(x[i], a[i, 0])
        return out
    far = r2 >= _W_FAR * _W_FAR
    n_far = np.count_nonzero(far)
    if n_far == 0:
        return _wofz(x + 1j * a)
    mixed = n_far < far.size
    w = _w_far((x[far] if mixed else x) + 1j * a, (r2[far] if mixed else r2).min())
    if not mixed:
        return w
    out = np.empty(far.shape, dtype=complex)
    out[far] = w
    out[~far] = _wofz(x[~far] + 1j * a)
    return out


def scaled_time_kernel(k, t_ba, T: float, *, d_omega):
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
    mean gap (``oracle.time_integral_closed``).  At c = 0 the two
    Faddeeva arguments coincide, so equal gaps take one ``_faddeeva`` call
    (the wings -2i Im w, exactly conj w - w) and unequal gaps two: wofz
    where |z| < 7, the asymptotic series from there.  A call skips the
    Gaussian where (b+c)^2 >= 750 at every node (the tails past k_hi),
    since its exp is 0.0 there.  Accepts a scalar or array k >= 0 and
    returns (value, magnitude) of its shape: the wings
    weigh 2 + a^2 (one for the Faddeeva function), the Gaussian 1 + its
    exponent's parts.  Where the value is subnormal (near (b+c)^2 ~ 730)
    that bound fails: it is off by a few units of 2^-1074 in absolute terms.
    Arrays of clocks t_ba, d_omega give a row each, with its bits alone."""
    if T <= 0.0:
        raise ValueError("switching width T must be positive")
    k_arr = np.asarray(k, dtype=float)
    return _by_rows(_time_kernel, k_arr, t_ba, T, d_omega, k_arr.size)


def _by_rows(kernel, k, t_ba, T: float, d_omega, width: int):
    # kernel(k, t_ba, T, d_omega) of one clock, or of arrays of clocks: blocks of rows of at most
    # _ROW_BLOCK values (width a row's), in cache, or row by row where 16 rows do not fit (cheaper)
    if not isinstance(t_ba, np.ndarray):
        return kernel(k, t_ba, T, d_omega)
    step = _ROW_BLOCK // width if _ROW_BLOCK >= 16 * width else 1
    rows = (kernel(k if k.ndim == 1 else k[i:i + step], t_ba[i:i + step, None], T,
                   d_omega[i:i + step, None]) if step > 1 else tuple(x[None] for x in kernel(
                       k if k.ndim == 1 else k[i], float(t_ba[i]), T, float(d_omega[i])))
            for i in range(0, len(t_ba), step))
    return next(rows) if len(t_ba) <= step else tuple(map(np.concatenate, zip(*rows)))


def _time_kernel(k_arr, t_ba, T: float, d_omega):
    # scaled_time_kernel of one clock or a block of them
    a, c, e_a, unequal = _clock_parts(t_ba, T, d_omega, np.exp)
    b = T * k_arr / _SQRT2
    w_lo = _faddeeva(b - c if unequal or isinstance(c, np.ndarray) else b, a)  # b - 0.0 is b
    if not unequal:  # conj(w) - w = -2i Im w and |w| + |w| = 2|w|, both exactly
        out, mag = (-2j * e_a) * w_lo.imag, e_a * (2.0 + a * a) * (2.0 * np.abs(w_lo))
    else:
        w_hi = _faddeeva(b + c, a)
        out = e_a * (w_lo.conj() - w_hi)
        mag = e_a * (2.0 + a * a) * (np.abs(w_lo) + np.abs(w_hi))
    bc = b + c if unequal else b
    w_lo = w_hi = b = None  # freed before the Gaussian, where a head pass peaks
    bb = bc * bc  # past (b+c)^2 = 750 exp is 0.0: a call dead at every node skips it
    if np.count_nonzero(bb < _GAUSS_DEAD):
        gauss = 2.0 * np.exp(-bb - 2j * a * bc)
        out += gauss
        mag += np.abs(gauss) * (1.0 + bb + 2.0 * a * (np.abs(bc) if unequal else bc))  # b >= 0
    return (complex(out), float(mag)) if k_arr.ndim == 0 else (out, mag)


def _clock_parts(t_ba, T: float, d_omega, exp):
    # a, c, exp(-a^2) and c != 0 of one clock, or of a column (exp one by one)
    a, c = abs(t_ba) / (_SQRT2 * T), T * d_omega / (2.0 * _SQRT2)
    if not isinstance(a, np.ndarray):
        return a, -c if t_ba < 0.0 else c, exp(-a * a), c != 0.0
    e_a = np.array([exp(x) for x in (-a * a).ravel().tolist()])[:, None]
    return a, np.where(t_ba < 0.0, -c, c), e_a, bool(c.any())


def _time_wings(k, t_ba, T: float, *, d_omega):
    """The wings of ``scaled_time_kernel``, W = e^{-a^2} [conj w(b - c + ia)
    - w(b + c + ia)] = e^{-a^2} [w(c - b + ia) - w(b + c + ia)] on the real
    axis, continued to a complex array k through the asymptotic series P of
    w (a polynomial in 1/z): analytic wherever Re b - |c| >= 7, as past M's
    live edge, where on the real axis they are the kernel less its Gaussian
    part within a few eps.  Returns (W(k), W(conj k)): P is odd and P(conj
    z) = -conj P(z), so W(conj k) = -conj W(k) at equal gaps, and at
    unequal ones -conj of W(k) at -c.  Arrays of clocks take a row each."""
    return _by_rows(_wings_kernel, k, t_ba, T, d_omega, 2 * np.shape(k)[-1])


def _wings_kernel(k, t_ba, T: float, d_omega):
    # _time_wings of one clock or a block of them
    a, c, e_a, unequal = _clock_parts(t_ba, T, d_omega, math.exp)
    col = isinstance(a, np.ndarray)
    b = (T / _SQRT2) * k
    z = (c - b, b + c, -c - b, b - c)[:4 if unequal else 2]
    z = np.stack(z, axis=1) + 1j * a[..., None] if col else np.array(z) + 1j * a
    r2 = z.real * z.real + z.imag * z.imag
    w = _w_far(z, r2.min(axis=(1, 2)) if col else float(r2.min()))
    value = e_a * (w[..., 0, :] - w[..., 1, :])
    return value, -(e_a * (w[..., 2, :] - w[..., 3, :]) if unequal else value).conj()


# ----------------------------------------------------------------------------
# Spherical Bessel functions
# ----------------------------------------------------------------------------

def spherical_bessel_j0(x):
    """j_0(x) = sin x / x for x >= 0, the UdW and derivative spatial kernel,
    and its magnitude.

    sin x / x cancels nothing: at every x >= 1e-8, and 1 below.  The
    magnitude is |j_0| from x = 5 and, below it, the sum of the sizes of
    the Maclaurin terms, sinh x / x.  Returns (value, magnitude); scalars
    give floats.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    tiny = x_arr < 1e-8
    if np.count_nonzero(tiny) and x_arr[tiny].min() < 0.0:  # no NaN: every x < 0 is tiny
        raise ValueError("spherical_bessel_j0 requires x >= 0")
    xl = np.maximum(x_arr, 1e-8)  # sin x / x at x >= 1e-8 only: 1 overwrites below
    out = np.sin(xl) * (1.0 / xl)
    if np.count_nonzero(tiny):
        out[tiny] = 1.0
    mag, small = np.abs(out), x_arr < 5.0
    if np.count_nonzero(small):
        s = np.maximum(x_arr[small], 1e-300)
        mag[small] = np.sinh(s) / s
    return (float(out[0]), float(mag[0])) if np.ndim(x) == 0 else (out, mag)


# Maclaurin coefficients of 3 j_1(x)/x in y = x^2, highest power first (Horner
# order, as 0-d arrays): c_0 = 1, c_m = c_{m-1} (-1/2) / (m (2m+3)).  The
# twentieth term is below 1e-19 at the x = 5 switch point.
_J0J2_SERIES = tuple(map(np.array, reversed(list(itertools.accumulate(
    range(1, 20), lambda c, m: c * -0.5 / (m * (2 * m + 3)), initial=1.0)))))


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
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    small = x_arr < 5.0
    xs = x_arr[small]  # every x < 0, and no NaN
    if xs.size and xs.min() < 0.0:
        raise ValueError("spherical_bessel_j0_plus_j2 requires x >= 0")
    # the closed form everywhere (at x >= 5 only: the series overwrites below)
    xl = np.maximum(x_arr, 5.0)
    s, c, xx = np.sin(xl), np.cos(xl), xl * xl
    out = 3.0 * (s / xl - c) / xx
    mag = 3.0 * (np.abs(s) / xl + np.abs(c)) / xx
    if xs.size:
        y = xs * np.array((xs, -xs))  # (x^2, -x^2)
        acc = np.full_like(y, _J0J2_SERIES[0])
        for coef in _J0J2_SERIES[1:]:
            acc *= y
            acc += coef
        out[small], mag[small] = acc
    return (float(out[0]), float(mag[0])) if np.ndim(x) == 0 else (out, mag)


def _j0_wave(x):
    """A(x) = -i/(2x) for complex x != 0, the wave of j_0(x) = 2 Re(e^{ix}
    A(x)) at real x: j_0(x) = e^{ix} A(x) + e^{-ix} conj A(conj x)
    everywhere.  At real x, 2|A| = 1/x bounds |j_0| and its magnitude from
    x = 5."""
    return -0.5j / x


def _j0_plus_j2_wave(x):
    """A(x) = 3 (-i/(2x) - 1/2)/x^2 for complex x != 0, the wave of 3
    j_1(x)/x = 2 Re(e^{ix} A(x)) at real x, as ``_j0_wave``.  At real x,
    2|A| = 3 sqrt(1 + 1/x^2)/x^2 bounds |3 j_1(x)/x| and, by Cauchy-Schwarz,
    its magnitude 3 (|sin x|/x + |cos x|)/x^2 from x = 5."""
    return (3.0 / (x * x)) * (-0.5j / x - 0.5)


# ----------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ----------------------------------------------------------------------------

# 31-point Kronrod extension of 15-point Gauss (QUADPACK dqk31), as
# ``tools/gauss_kronrod.py`` prints it: the nodes x >= 0 from the end inward,
# their Kronrod weights and the Gauss weights of every second node; mirrored
# below into ascending arrays, whose odd indices are the Gauss nodes
_XGK_HALF = (
    0.998002298693397060285172840152271, 0.987992518020485428489565718586613,
    0.967739075679139134257347978784337, 0.937273392400705904307758947710209,
    0.897264532344081900882509656454496, 0.848206583410427216200648320774217,
    0.790418501442465932967649294817947, 0.724417731360170047416186054613938,
    0.650996741297416970533735895313275, 0.570972172608538847537226737253911,
    0.485081863640239680693655740232351, 0.394151347077563369897207370981045,
    0.299180007153168812166780024266389, 0.201194093997434522300628303394596,
    0.101142066918717499027074231447392, 0.0,
)
_WGK_HALF = (
    0.00537747987292334898779205143012765, 0.0150079473293161225383747630758073,
    0.0254608473267153201868740010196534, 0.0353463607913758462220379484783600,
    0.0445897513247648766082272993732797, 0.0534815246909280872653431472394303,
    0.0620095678006706402851392309608029, 0.0698541213187282587095200770991475,
    0.0768496807577203788944327774826590, 0.0830805028231330210382892472861038,
    0.0885644430562117706472754436937743, 0.0931265981708253212254868727473457,
    0.0966427269836236785051799076275893, 0.0991735987217919593323931734846031,
    0.100769845523875595044946662617570, 0.101330007014791549017374792767493,
)
_WG_HALF = (
    0.0307532419961172683546283935772044, 0.0703660474881081247092674164506673,
    0.107159220467171935011869546685869, 0.139570677926154314447804794511028,
    0.166269205816993933553200860481209, 0.186161000015562211026800561866423,
    0.198431485327111576456118326443839, 0.202578241925561272880620199967519,
)
_XGK = np.array((*(-x for x in _XGK_HALF[:-1]), *_XGK_HALF[::-1]))
_WGK = np.array((*_WGK_HALF[:-1], *_WGK_HALF[::-1]))
_WG = np.array((*_WG_HALF[:-1], *_WG_HALF[::-1]))


# the roundoff floor of one panel, per unit of its integral of the magnitude
_ROUNDOFF = 50.0 * np.finfo(float).eps
# per panel, the Kronrod sum K, the first moment sum w x f and K - G (G the
# Gauss sum on the odd nodes) as rows of weights for one matrix product; the
# moment's weights are antisymmetric, so they sum to exactly 0, each |w x| < w
_SUMS = np.array([_WGK, _WGK * _XGK, _WGK])
_SUMS[2, 1::2] -= _WG
_SURE = 1.0 - 8.0 * np.finfo(float).eps  # 200|K - G| this far below F proves err = F


def _quadpack_error(err, resasc, floor):
    # QUADPACK's error of panels from |K - G|, resasc and the roundoff floor
    nonzero = resasc > 0.0
    ratio = np.divide(200.0 * err, resasc, out=np.zeros(err.shape), where=nonzero)
    return np.maximum(np.where(nonzero, resasc * np.minimum(1.0, ratio ** 1.5), err), floor)


def _gk15_reduce(fv, fm, half: np.ndarray):
    # Gauss-Kronrod sums of node values fv and magnitudes fm, _XGK.size nodes
    # per panel of half, as matrix products on (..., panels, nodes) arrays,
    # with QUADPACK's error
    shape = fv.shape[:-1] + (half.shape[-1], _XGK.size)
    fv = fv.reshape(shape)
    habs = np.abs(half)
    sumk = fv @ _WGK
    resk = sumk * half
    resg = (fv[..., 1::2] @ _WG) * half
    resabs = (fm.reshape(shape) @ _WGK) * habs
    resasc = (np.abs(fv - 0.5 * sumk[..., None]) @ _WGK) * habs
    return resk, _quadpack_error(np.abs(resk - resg), resasc, _ROUNDOFF * resabs), resabs


def _gk15_blocks(spatial, units, at, half: np.ndarray):
    """The rule's sums of the rows f = kernel(k d) U of a block of d under
    the times of a pass, per member at its (d, time) index pair of at:
    (integral, error, abs_integral) on each panel of half as (members,
    panels) arrays.  spatial is kernel(k d) as (value, magnitude) rows per
    d, units U, |U| and U_mag as (panels, nodes, times) arrays.  K, the first moment, K - G and
    resabs are matrix products per panel of the weighted spatial rows and
    the times (of f and the weights, for one time); resasc, the integral of
    |f - mean|, only where QUADPACK's error is not proved to be the floor
    (README, Numerical notes)."""
    (sv, sm), (u, absu, umag) = spatial, units
    n_p, habs = half.size, np.abs(half)
    sv, sm = (x.reshape(len(x), n_p, _XGK.size) for x in (sv, sm))  # (d, panels, nodes)
    ha = habs[:, None, None]
    if u.shape[2] == 1:  # one time: f = sv U as two real products, then its weighted sums
        f = np.empty(sv.shape, complex)
        np.multiply(sv, u[..., 0].real, out=f.real)
        np.multiply(sv, u[..., 0].imag, out=f.imag)
        sums = (f @ _SUMS.T).transpose(1, 2, 0)[..., None]
        resabs = ((sm * absu[..., 0] + np.abs(sv) * umag[..., 0]) @ _WGK).T[..., None] * ha
    else:  # the weighted spatial rows against the times, per panel
        svt = sv.transpose(1, 0, 2)
        sums = ((svt[:, None] * _SUMS[:, None]).reshape(n_p, -1, _XGK.size) @ u.view(float)).view(
            complex).reshape(n_p, 3, len(sv), -1)
        resabs = ((sm.transpose(1, 0, 2) * _WGK) @ absu + (np.abs(svt) * _WGK) @ umag) * ha
    # sums: (panels, (K, moment, K - G), d, time)
    resk, err = sums[:, 0] * half[:, None, None], np.abs(sums[:, 2]) * ha
    big, floor = 200.0 * err, _ROUNDOFF * resabs
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = floor / big
        lhs = np.maximum(np.abs(sums[:, 1].real), np.abs(sums[:, 1].imag)) * ha
        sure = (big <= _SURE * floor) | (lhs * q * q > 2.0 * big)
    sure &= floor < np.inf
    rest = (~sure).nonzero()
    if rest[0].size:
        p, d, t = rest
        mean = 0.5 * sums[:, 0][rest][:, None]
        sums = q = lhs = big = None  # freed before the rest's rows, where a head pass peaks
        fv = u[p, :, t]
        fv *= sv[d, p]
        fv -= mean
        err[rest] = _quadpack_error(err[rest], (np.abs(fv) @ _WGK) * habs[p], floor[rest])
    return tuple(x[:, at[0], at[1]].T for x in (resk, np.where(sure, floor, err), resabs))


def _index(items):
    # the distinct items in order of first appearance, and each item's index among them
    first = {}
    at = [first.setdefault(item, len(first)) for item in items]
    return list(first), np.array(at, dtype=int)


def _integrands(f, k, kernel, members, time=None):
    """Yield (ids, integrand) of the members at the nodes k, one row of nodes
    that they share: f once and the time factors of their clocks in one
    call.  Members of two or more distinct (clock, d > 0) with a kernel come
    last, in blocks of distinct d of at most _BLOCK_NODES nodes of kernel(k
    d): integrand the arguments of ``_gk15_blocks``.  The others are a stack
    of rows (value, magnitude): U, f times the time factor, kernel(k d) U
    for the one (clock, d > 0) (a spatial factor 1 would change U's
    magnitude), or without a time f itself."""
    if time is None:
        yield list(range(len(members))), f(k)
        return
    row = {clock: i for i, clock in enumerate(dict.fromkeys(c for c, _ in members))}
    cells = {}  # the members of each (clock, d > 0) with a kernel
    for i, (clock, d) in enumerate(members):
        if kernel is not None and d > 0.0:
            cells.setdefault((clock, d), []).append(i)
    scale = f(k)
    unit, mag = (scale * x for x in time(list(row), k))
    ids, rows = [i for i, m in enumerate(members) if len(cells) < 2 or m not in cells], []
    for i in ids:
        u, um = unit[row[members[i][0]]], mag[row[members[i][0]]]
        if members[i] in cells:  # the one cell
            sv, sm = kernel(k * members[i][1])
            u, um = sv * u, sm * np.abs(u) + np.abs(sv) * um
        rows.append((u, um))
    if rows:  # one row as it is, and every row of U in order without a copy
        every = len(cells) != 1 and [row[members[i][0]] for i in ids] == list(range(len(row)))
        yield ids, rows[0] if len(rows) == 1 else (unit, mag) if every else tuple(
            map(np.array, zip(*rows)))
    if len(cells) < 2:
        return
    times = {t: n for n, t in enumerate(dict.fromkeys(t for t, _ in cells))}
    cols = [row[t] for t in times]
    u, um = (unit, mag) if cols == list(range(len(row))) else (unit[cols], mag[cols])
    # U, |U| and U_mag per panel, node and time
    units = tuple(np.ascontiguousarray(x.T).reshape(k.size // _XGK.size, _XGK.size, len(times))
                  for x in (u, np.abs(u), um))
    size, ds, blocks = max(1, _BLOCK_NODES // k.size), {}, {}
    for (clock, d), ids in cells.items():
        j, r = ds.setdefault(d, divmod(len(ds), size))
        blocks.setdefault(j, []).extend((i, r, times[clock]) for i in ids)
    ds = list(ds)
    for j, block in blocks.items():
        ids, rows, cols = zip(*block)
        yield list(ids), (kernel(k * np.array(ds[j * size:(j + 1) * size])[:, None]), units,
                          (np.array(rows), np.array(cols)))


def _gk15_panels(f, lo, hi, kernel=None, members=((None, 0.0),), time=None):
    """The Gauss-Kronrod rule (``_XGK``; the name is the one the benchmark's
    tracer follows) on a batch of panels, for each member of a spec:
    (integral, error_estimate, abs_integral) as (members, panels) arrays, with
    the QUADPACK error heuristic, and the node count.  abs_integral integrates
    the magnitude, so the roundoff floor counts the integrand's rounding.  The
    members' integrands come from ``_integrands`` (f the spec's integrand,
    time its time) on the panels lo to hi, which they share: each member in
    a stack of rows, a row alone or in a block (``_gk15_blocks``).
    """
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    k = (mid[:, None] + half[:, None] * _XGK).ravel()
    ids, parts = [], []
    for i, fk in _integrands(f, k, kernel, members, time):
        ids.append(i)
        parts.append(_gk15_blocks(*fk, half) if len(fk) == 3 else _gk15_reduce(*fk, half))
    if len(parts) == 1 and ids[0] == list(range(len(members))):  # all, in order
        rows = tuple(x.reshape(len(members), -1) for x in parts[0])
    else:  # rows go back in member order
        rows = tuple(np.empty((len(members), lo.size), np.result_type(*x)) for x in zip(*parts))
        for i, part in zip(ids, parts):
            for row, x in zip(rows, part):
                row[i] = x
    return (*rows, k.size)


def _adaptive_gk(f, breakpoints: np.ndarray, atol: float, rtol: float,
                 max_panels: int = 4000, kernel=None, members=None, prior=None, time=None):
    """Adaptive Gauss-Kronrod over the panels given by breakpoints.

    Panels live in parallel arrays (QUADPACK-style bookkeeping); each pass
    splits the n // 8 worst panels (at least 1, at most 16), chosen by a
    stable sort on the error estimate, and appends their halves.

    It stops when the summed error meets tol = max(atol, rtol |value|), at
    max_panels, or at the roundoff floor: every panel's error is at least
    50 eps times its integral of the integrand's magnitude, so once that
    floor, summed over the panels, reaches tol, no split can meet tol, and
    the driver stops as soon as the error above the floor is within tol
    (QUADPACK's ier = 2).  The returned error still includes the floor.

    With members, a spec's members (f its integrand, time its time) are rows
    of one panel set, each pass evaluating their clocks' time factors in one
    call and each kernel(k d) once for the rows still running.  Each row
    keeps its own error, tol and stopping tests and is dropped, its panels
    too, as soon as it stops; a pass splits the panels with the worst err_i
    / tol_i over the rows left.  The rows are three (members, panels)
    arrays.  Returns one (value, error, abs_integral, evals) per member, or
    the one of f.

    prior: (lo, hi, rows), panels already evaluated, with the members' rows
    of (values, errors, abs_integrals) on them: the first pass adds the
    panels of breakpoints (if any) and tests the members on all of them, as
    if this run had evaluated them.  evals counts only this run's nodes.
    """
    lo, hi = (np.asarray(x, dtype=float) for x in (breakpoints[:-1], breakpoints[1:]))
    one = members is None
    members = ((None, 0.0),) if one else tuple(members)
    out, rows, evals = [None] * len(members), None, 0
    running, keep, new_lo, new_hi = np.arange(len(members)), None, lo, hi
    if prior is not None:
        rows, keep = prior[2], np.arange(prior[0].size)
        lo, hi = np.concatenate((prior[0], lo)), np.concatenate((prior[1], hi))
    while True:
        if new_lo.size:
            evals += _XGK.size * new_lo.size
            new = _gk15_panels(f, new_lo, new_hi, kernel, [members[i] for i in running], time)[:3]
            rows = new if rows is None else [
                np.concatenate((x.take(keep, axis=1), y), axis=1) for x, y in zip(rows, new)]
        total, err_sum, abs_sum = (x.sum(axis=1) for x in rows)
        tol = np.maximum(atol, rtol * np.abs(total))
        floor = _ROUNDOFF * abs_sum
        done, floored = err_sum <= tol, floor >= tol
        if np.count_nonzero(floored):  # no split can meet tol: stop within tol above the floor
            done |= floored & (err_sum - floor <= tol)
        done |= lo.size >= max_panels
        n_done = np.count_nonzero(done)
        if n_done:
            for j in done.nonzero()[0]:
                out[running[j]] = (total[j], float(err_sum[j]), float(abs_sum[j]), evals)
            if n_done == running.size:
                break
            left = ~done
            running, tol, rows = running[left], tol[left], [x[left] for x in rows]
        score = rows[1][0] if running.size == 1 else (rows[1] / tol[:, None]).max(axis=0)
        order = np.argsort(score, kind="stable")
        n_split = min(16, max(1, lo.size // 8))
        keep, worst = order[:-n_split], order[-n_split:]
        a, b = lo[worst], hi[worst]
        m = 0.5 * (a + b)
        new_lo, new_hi = np.empty((2, 2 * n_split))  # each panel's halves, in its place
        new_lo[0::2], new_lo[1::2], new_hi[0::2], new_hi[1::2] = a, m, m, b
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
    return out[0] if one else out


# Gauss-Laguerre rules in u = y d along a ray, 28 nodes then 16: the nodes
# i u of both, and the sum and its check as one (2, 44) matrix of weights
_RAYS = tuple(np.polynomial.laguerre.laggauss(n) for n in (28, 16))
_RAY_Y = 1j * np.concatenate([u for u, _ in _RAYS])
_RAY_W = np.zeros((2, _RAY_Y.size))
_RAY_W[0, :28], _RAY_W[1, 28:] = _RAYS[0][1], _RAYS[1][1]


def _rays(f, wave, members, wings, k0, top, time):
    """The wings of members i = (clock, d) over [k0[i], inf), each kernel(k
    d) W_i(k) f(k), with the scale f real and kernel(x) = 2 Re(e^{ix} A(x))
    on the real axis (wave: x -> A(x)) and W_i analytic, all on Re k >=
    k0[i].  By Cauchy's theorem the wave e^{ikd} A(kd) integrates along the
    ray k0 + iy and its conjugate e^{-ikd} conj A(conj(k) d) along k0 - iy,
    where both decay as e^{-yd} (Huybrechs and Vandewalle, SIAM J. Numer.
    Anal. 44, 2006); f and A on the lower ray are the conjugates of their
    values on the upper one, and wings gives W_i on both from the upper
    ray's nodes.  Gauss-Laguerre in u = y d with 28 nodes gives the value
    and with 16 its error, |Q28 - Q16| plus the roundoff floor of the 28
    nodes' |f|.

    On the real axis, the rule integrates the member's own time factor
    against the smooth envelope f 2|A(k d)|, which bounds the kernel and its
    magnitude from k d = 5, over the panels that meet [k0[i], top[i]] of
    one row of geometric panels, each of ratio at most _ENVELOPE_RATIO,
    from the least k0 to the largest top: the integral of the magnitude is
    that of |time value| + time magnitude, and that of |time value - W|
    joins the error, which is W's Gaussian part where the time factor is
    the one W continues.  One pass for every member: f and A once per
    distinct (k0, d), one call of the time on that row and one of the wings
    (a row per clock: its members' upper rays and that row), and the
    envelope's panel sums as matrix products of the time rows and the
    spatial ones.  Returns (value, error, abs_integral, evaluations) arrays."""
    n, d = _RAY_Y.size, np.array([d for _, d in members])
    # the distinct (k0, d) and clocks, and each member's own among them
    spatial, s_at = _index(zip(k0.tolist(), d.tolist()))
    clocks, c_at = _index(clock for clock, _ in members)
    ks, ds = np.array(spatial).T
    x0 = ks * ds
    up = ks[:, None] + _RAY_Y / ds[:, None]  # the upper ray, (row, node)
    # f A on the upper ray, with e^{i k0 d} and dk = i dy
    h = f(up) * wave(x0[:, None] + _RAY_Y) * (1j * np.exp(1j * x0) / ds)[:, None]
    lo, hi = k0.min(), top.max()
    panels = max(1, math.ceil(math.log(hi / lo) / math.log(_ENVELOPE_RATIO)))
    edges = lo * (hi / lo) ** (np.arange(panels + 1) / panels)
    half = 0.5 * (edges[1:] - edges[:-1])
    kr = ((edges[1:] - half)[:, None] + half[:, None] * _XGK).ravel()
    u, m = time(clocks, kr)
    # a clock's row of wings: its members' rays in order (slot), kr, and kr[0] to fill it;
    # a member per clock, in member order, needs no slots
    width, at = n, (slice(None), slice(0, n))
    if len(clocks) < d.size:
        order, slot = np.argsort(c_at, kind="stable"), np.empty(d.size, dtype=int)
        slot[order] = np.arange(d.size) - np.searchsorted(c_at[order], c_at[order])
        width, at = n * (slot.max() + 1), (c_at[:, None], slot[:, None] * n + np.arange(n))
    rows = np.full((len(clocks), width + kr.size), kr[0], dtype=complex)
    rows[:, width:] = kr
    rows[at] = up[s_at]
    on_ray, conj_ray = wings(clocks, rows)  # W(k), W(conj k)
    w, w_conj, hm = on_ray[at], conj_ray[at], h[s_at]
    q = (hm * w + hm.conj() * w_conj) @ _RAY_W.T
    floor = _ROUNDOFF * ((np.abs(hm) * (np.abs(w) + np.abs(w_conj))) @ _RAY_W[0])
    # per panel, the rule's sums of every clock's rows against every
    # envelope row as one matrix product; a member sums its own entry over
    # the panels that meet its span
    env = (f(kr) * (2.0 * np.abs(wave(kr * ds[:, None])))).reshape(-1, panels, _XGK.size)
    mine = half[:, None] * ((edges[1:, None] > k0) & (edges[:-1, None] < top))
    absint, off = ((((x.reshape(-1, panels, _XGK.size) * _WGK).transpose(1, 0, 2)
                     @ env.transpose(1, 2, 0))[:, c_at, s_at] * mine).sum(axis=0)
                   for x in (np.abs(u) + m, np.abs(u - on_ray[:, width:])))
    return q[:, 0], np.abs(q[:, 0] - q[:, 1]) + floor + off, absint, np.full(d.size, 2 * n + kr.size)


@functools.lru_cache(maxsize=16)
def _seeds(k_hi: float) -> tuple:
    # 0, k_hi and 17 geometric points for the low-k structure of k^p * rational
    return (0.0, k_hi, *np.geomspace(k_hi * _SEED_DEPTH, k_hi, 17))


def integrate_damped_group(spec: DampedKernelSpec, atol: float = 1e-16,
                           rtol: float = 1e-10, max_panels: int = 4000) -> list:
    """Integrate every member of spec over [0, inf) on one head panel set.

    The Gaussian envelope is dead (< 1e-300) beyond k_hi = sqrt(750/w).  The
    head's seed panels are geometric below k_hi and four half periods of the
    fastest oscillation across the members wide, cut at the spec's live edge
    k_live (past which every member's Gaussian part is e^-60 below its
    peak; k_hi without one), plus k_live itself.  Every member is refined
    on [0, k_live] as one run (``_adaptive_gk``) to half the tolerances:
    each pass evaluates each time and kernel(k d) once for the members
    still running, and each member stops on its own tolerance.  Its bound
    past the edge (``edge_bounds``) joins its error.  With wings, each
    member adds its wings past k_live (``_wings``), to the other half.
    Raises ValueError where the head's half periods below k_hi outnumber
    2^53, which its seed arithmetic cannot represent.

    Returns one entry per member: its QuadratureResult, or, where its
    requested tolerance is unreachable, a QuadratureConvergenceError
    carrying its best estimate.  One member's failure leaves the others'
    results as they are.
    """
    k_hi = math.sqrt(_GAUSS_DEAD / spec.damping_width)

    members, kernel = spec.members, spec.kernel
    pts = [_seeds(k_hi)]
    lengths = spec.oscillation_lengths + tuple(
        2.0 * math.pi / d for _, d in members if kernel is not None and d > 0.0)
    if lengths:
        h = min(lengths) / 2.0
        if not k_hi / h < _MAX_HALF_PERIODS:
            what = "delay |t_BA|" if 2.0 * h in spec.oscillation_lengths else "separation d"
            raise ValueError(f"a {what} of {math.pi / h:.6g} oscillates {k_hi / h:.3g} "
                             f"half periods below k = {k_hi:.6g}: beyond the seed panels")
        width = _PANEL_HALF_PERIODS * h
        n_osc = int(k_hi / width)
        if n_osc > 1:
            stride = max(1, int(math.ceil(n_osc / 600)))  # at most 600 seeds
            pts.append(np.arange(1, n_osc + 1, stride) * width)
    pts = np.sort(np.concatenate(pts))  # np.unique's steps, without its overhead
    breakpoints = pts[np.concatenate(((True,), pts[1:] != pts[:-1]))]
    k_live = spec.live_edge if spec.wings else min(spec.live_edge, k_hi)
    edge = np.concatenate((breakpoints[breakpoints < k_live], (k_live,)))
    heads = _adaptive_gk(spec.integrand, edge, 0.5 * atol, 0.5 * rtol, max_panels, kernel,
                         members, time=spec.time)
    value, err, absint, evals = map(np.array, zip(*heads))
    if spec.edge_bounds:
        err = err + spec.edge_bounds
    if spec.wings:
        value, err, absint, evals = (x + y for x, y in zip(
            (value, err, absint, evals), _wings(spec, k_live, k_hi, 0.5 * atol, 0.5 * rtol)))
    return [_result(*row, atol, rtol) for row in zip(
        value.tolist(), err.tolist(), absint.tolist(), evals.tolist())]


def _wings(spec: DampedKernelSpec, k_live: float, k_hi: float, atol: float,
           rtol: float) -> tuple:
    """The wings of spec's members past the live edge k_live: kernel(k d)
    W(k) f(k), W the member's ``wings``, analytic on Re k >= k_live.  A
    member with d > 0 takes them along rays (``_rays``, with the kernel's
    ``wave``) from k_ray, the larger of k_live and _RAY_X/d: from there the
    rule meets no pole of the wave or the scale closer than k d >= 15.  From
    k_live to k_ray, a stretch of less than five half periods, and for d =
    0 (or no kernel, or k_ray past the cutoff) out to the cutoff, where the
    wings do not oscillate, it integrates the member's own integrand on
    geometric panels, two a decade, refined as one run per stretch.  A ray
    member's integral of the magnitude is its envelope's over the panels
    that cover [k_ray, k_hi + 80 half periods], the span that the head which
    ran on to k_hi and the QAWF tail past it would have integrated, and 50
    eps of it joins its error.
    Returns (value, error, abs_integral, evals) arrays over the members."""
    members, cutoff = spec.members, spec.cutoff
    d = np.array([d if spec.kernel is not None else 0.0 for _, d in members])
    with np.errstate(divide="ignore"):
        k_ray = np.maximum(k_live, _RAY_X / d)
    ray = k_ray < cutoff
    out = np.zeros(d.size, complex), np.zeros(d.size), np.zeros(d.size), np.zeros(d.size, int)
    ends = np.where(ray, k_ray, cutoff)
    for end in dict.fromkeys(ends[ends > k_live].tolist()):
        ids = (ends == end).nonzero()[0]
        n_dec = max(1, int(math.ceil(math.log10(end / k_live))))
        runs = _adaptive_gk(spec.integrand, np.geomspace(k_live, end, 2 * n_dec + 1), atol, rtol,
                            kernel=spec.kernel, members=[members[i] for i in ids], time=spec.time)
        for x, y in zip(out, zip(*runs)):
            x[ids] = y
    ids = ray.nonzero()[0]
    if ids.size:
        k0 = k_ray[ids]
        top = np.maximum(k0, k_hi + _SPAN_HALF_PERIODS * math.pi / d[ids])
        value, error, absint, evals = _rays(spec.integrand, spec.wave, [members[i] for i in ids],
                                            spec.wings, k0, top, spec.time)
        for x, y in zip(out, (value, error + _ROUNDOFF * absint, absint, evals)):
            x[ids] += y
    return out


def _result(value, err, absint, evals, atol: float, rtol: float):
    # the QuadratureResult, or the QuadratureConvergenceError of one past tolerance and
    # roundoff; an error that is not a number (an integrand past double range) is inf
    err = float(err) if err >= 0.0 else math.inf
    result = QuadratureResult(value, err, int(evals), float(absint))
    if err > max(atol, rtol * abs(value)) and err > 20.0 * _ROUNDOFF * absint:  # 1e3 eps
        return QuadratureConvergenceError(
            f"quadrature stalled at abs error {err:.3e} for value {value:.6e}", result)
    return result


def integrate_fixed_group(f, edges: np.ndarray, kernel, members, bound: float, time,
                          atol: float = 1e-16, rtol: float = 1e-10) -> list:
    """Integrate every member (clock, d) of f, time and kernel, as a spec's,
    over [0, inf) in one pass of the rule on the panels between edges: its
    error is their summed estimates plus bound, on its integral of |f| past
    edges[-1].  One that misses the tolerance refines through
    ``_adaptive_gk``, seeded with the panels, with up to 4000 more.  Returns
    what integrate_damped_group does."""
    lo, hi = edges[:-1], edges[1:]
    *rows, nodes = _gk15_panels(f, lo, hi, kernel, members, time)
    sums = [(v, e, a, nodes) for v, e, a in zip(*(x.sum(axis=1) for x in rows))]
    miss = [i for i, (v, e, _, _) in enumerate(sums) if e + bound > max(atol, rtol * abs(v))]
    if miss:
        for i, (*run, evals) in zip(miss, _adaptive_gk(
                f, edges[:0], atol, rtol, lo.size + 4000, kernel, [members[i] for i in miss],
                (lo, hi, rows if len(miss) == len(members) else [x[miss] for x in rows]), time)):
            sums[i] = (*run, evals + nodes)
    return [_result(value, err + bound, absint, evals, atol, rtol)
            for value, err, absint, evals in sums]
