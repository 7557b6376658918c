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
numpy arrays where it matters.  Integrands that differ in their time factor
and separation (a grid's t_BA and d) are integrated as the members of one
group (``integrate_damped_group``): on one head panel set, so each pass
evaluates each distinct time factor and spatial kernel once for all of them,
scales each time's factors once, and reduces the members with d > 0 by matrix
products per panel of kernel(k d) and the times (forming |f - mean| only
where it can move QUADPACK's error).  A pair alone keeps every bit of its
head's rows; a row of such a block agrees with the row alone within its
panel's roundoff floor (its error estimate within 200 floors), and the
figures agree within their errors (``tests/golden``).

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

Rounding model: an integrand returns (value, magnitude) per node, with
magnitude >= |value| such that 50 eps x magnitude bounds the node's rounding
for its arguments.  It adds the parts that cancel in the value, each weighted
by 1 + the size of its exponent's parts (an exponent of size s is rounded
to ~eps s), plus the error of the Faddeeva function (scipy's ``wofz`` below
|z| = 7, off by up to ~110 eps, and its asymptotic series from there, within
2.4 eps); products propagate as m(ab) = m(a)|b| + |a|m(b).  A subnormal
value (the time kernel's Gaussian near (b+c)^2 ~ 730) rounds in absolute
units of 2^-1074 instead: it may be a few of them off where 50 eps x
magnitude is far below one, which is negligible in any integral.  GK15's
roundoff floor, 50 eps times the integral of the magnitude (QUADPACK;
Piessens et al., 1983), is the one place that rounding enters the error
estimates.
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
_RAY_X = 15.0              # wings take rays from where k d reaches this
_SPAN_HALF_PERIODS = 80    # a ray member's magnitude spans this many half periods past k_hi
_ENVELOPE_RATIO = 1.5      # the ratio of a geometric GK15 panel of that span, at most
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
    members: (time, d) per member, each integrated to its own tolerance,
        time a callable k -> tuple of (value, magnitude) factors: kernel(k d)
        times the time factors in order, then times the scale.
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
    wings: per member, a callable on complex arrays of k -> (W(k), W(conj
        k)), W its time factor less the Gaussian part, analytic on Re k >=
        live_edge, where that part is what the time factor has left; or ()
        for none: nothing survives past the edge.
    wave: callable on complex x -> A(x), algebraic, such that kernel(x) =
        2 Re(e^{ix} A(x)) at real x: the rays of the wings.
    """

    damping_width: float
    oscillation_lengths: tuple[float, ...]
    integrand: Callable[[np.ndarray], object]
    members: tuple
    kernel: Callable | None = None
    cutoff: float = 0.0
    live_edge: float = math.inf
    edge_bounds: tuple = ()
    wings: tuple = ()
    wave: Callable | None = None

    def __post_init__(self):
        if not (self.damping_width > 0.0):
            raise ValueError("damping_width must be positive")
        if any(not (ell > 0.0) for ell in self.oscillation_lengths):
            raise ValueError("oscillation_lengths must all be positive")
        if not self.members or any(time is None or not (d >= 0.0) for time, d in self.members):
            raise ValueError("a spec needs members, each with a time and d >= 0")
        if not (self.live_edge > 0.0) or any(
                x and len(x) != len(self.members) for x in (self.edge_bounds, self.wings)):
            raise ValueError("live_edge must be positive, with one bound and wing per member")
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


def _w_far(z, r2_min: float):
    # w(z) at |z|^2 >= r2_min >= 49 by its asymptotic series in Horner form,
    # with the terms r2_min needs: a polynomial in 1/z, analytic off z = 0
    n = max(2, 1 + len(_W_RADII) - bisect.bisect_right(_W_RADII[::-1], math.sqrt(r2_min)))
    u = 1.0 / z
    y = 0.5 * u * u
    acc = _W_COEFFS[n - 1] * y + _W_COEFFS[n - 2]  # from two terms
    for coef in reversed(_W_TERMS[:n - 2]):
        acc *= y
        acc += coef
    return (1j / math.sqrt(math.pi)) * u * acc


def _faddeeva(x, a: float):
    """The Faddeeva function w(x + ia) for a real array x and a scalar
    a >= 0.  Where |z| >= 7 its asymptotic series in Horner form, with the
    terms the call's smallest such |z| needs (within 2.4 eps of 40-digit
    mpmath, where ``wofz`` is off by up to ~110 eps), elsewhere scipy's
    ``wofz``.  A call whose arguments all lie on one side takes no mask."""
    r2 = x * x + a * a
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
    w_lo = _faddeeva(b - c if c else b, a)  # b - 0.0 is b
    if c == 0.0:  # conj(w) - w = -2i Im w and |w| + |w| = 2|w|, both exactly
        out, mag = (-2j * e_a) * w_lo.imag, e_a * (2.0 + a * a) * (2.0 * np.abs(w_lo))
    else:
        w_hi = _faddeeva(b + c, a)
        out = e_a * (w_lo.conj() - w_hi)
        mag = e_a * (2.0 + a * a) * (np.abs(w_lo) + np.abs(w_hi))
    bc = b + c if c else b
    w_lo = w_hi = b = None  # freed before the Gaussian, where a head pass peaks
    bb = bc * bc  # past (b+c)^2 = 750 exp is 0.0: a call dead at every node skips it
    if np.count_nonzero(bb < _GAUSS_DEAD):
        gauss = 2.0 * np.exp(-bb - 2j * a * bc)
        out += gauss
        mag += np.abs(gauss) * (1.0 + bb + 2.0 * a * (np.abs(bc) if c else bc))  # b >= 0
    return (complex(out), float(mag)) if k_arr.ndim == 0 else (out, mag)


def _time_wings(k, t_ba: float, T: float, *, d_omega: float):
    """The wings of ``scaled_time_kernel``, W = e^{-a^2} [conj w(b - c + ia)
    - w(b + c + ia)] = e^{-a^2} [w(c - b + ia) - w(b + c + ia)] on the real
    axis, continued to a complex array k through the asymptotic series P of
    w (a polynomial in 1/z): analytic wherever Re b - |c| >= 7, as past M's
    live edge, where on the real axis they are the kernel less its Gaussian
    part within a few eps.  Returns (W(k), W(conj k)): P is odd and P(conj
    z) = -conj P(z), so W(conj k) = -conj W(k) at equal gaps, and at
    unequal ones -conj of W(k) at -c."""
    a = abs(t_ba) / (_SQRT2 * T)
    b = (T / _SQRT2) * k
    c = T * d_omega / (2.0 * _SQRT2)
    if t_ba < 0.0:
        c = -c
    z = np.array((c - b, b + c, -c - b, b - c)[:4 if c else 2]) + 1j * a
    w = _w_far(z, float((z.real * z.real + z.imag * z.imag).min()))
    e_a = math.exp(-a * a)
    value = e_a * (w[0] - w[1])
    return value, -(e_a * (w[2] - w[3]) if c else value).conj()


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
    # GK15 sums of node values fv and magnitudes fm, 15 nodes per panel of
    # half, as matrix products on (..., panels, 15) arrays, with QUADPACK's error
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
    """GK15 of the rows f = kernel(k d) U of a block of d under the times of
    a pass, per member at its (d, time) index pair of at: (integral, error,
    abs_integral) on each panel of half as (members, panels) arrays.
    spatial is kernel(k d) as (value, magnitude) rows per d, units U, |U|
    and U_mag as (panels, 15, times) arrays.  K, the first moment, K - G and
    resabs are matrix products per panel of the weighted spatial rows and
    the times (of f and the weights, for one time); resasc, the integral of
    |f - mean|, only where QUADPACK's error is not proved to be the floor
    (README, Numerical notes)."""
    (sv, sm), (u, absu, umag) = spatial, units
    n_p, habs = half.size, np.abs(half)
    sv, sm = (x.reshape(len(x), n_p, _XGK.size) for x in (sv, sm))  # (d, panels, 15)
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


def _product(factors, scale):
    # the factors' (value, magnitude) product in order, then times the scale
    (value, mag), *rest = factors
    for v, m in rest:
        value, mag = value * v, mag * np.abs(v) + np.abs(value) * m
    return scale * value, scale * mag


def _integrands(f, k, kernel, members):
    """Yield (ids, integrand) of the members at the nodes k, one row of nodes
    that they share: f once and each distinct time once.  Members of two or
    more distinct (time, d > 0) with a kernel come last, in blocks of
    distinct d of at most _BLOCK_NODES nodes of kernel(k d): ids a list,
    integrand the arguments of ``_gk15_blocks``.  Any other is a row alone,
    ids its index: U, f times the time's factors, or kernel(k d) U (a
    spatial factor 1 would change its magnitude)."""
    by_time = {}
    for i, (time, _) in enumerate(members):
        by_time.setdefault(time, []).append(i)
    cells = {}  # the members of each (time, d > 0) with a kernel
    for i, (time, d) in enumerate(members):
        if kernel is not None and time is not None and d > 0.0:
            cells.setdefault((time, d), []).append(i)
    times = {t: n for n, t in enumerate(dict.fromkeys(t for t, _ in cells))} if len(
        cells) > 1 else {}
    shape = (k.size // _XGK.size, _XGK.size, len(times))
    units = np.empty(shape, complex), np.empty(shape), np.empty(shape)
    scale = f(k)
    for time, ids in by_time.items():
        unit = None  # the previous time's go before the next is evaluated
        unit = None if time is None else _product(time(k), scale)
        if time in times:  # U, |U| and U_mag per panel and node
            for column, x in zip(units, (unit[0], np.abs(unit[0]), unit[1])):
                column[..., times[time]] = x.reshape(shape[:2])
        for i in ids:
            if (time, members[i][1]) not in cells:
                yield i, scale if unit is None else unit
            elif not times:
                sv, sm = kernel(k * members[i][1])
                yield i, (sv * unit[0], sm * np.abs(unit[0]) + np.abs(sv) * unit[1])
    size, ds, blocks = max(1, _BLOCK_NODES // k.size), {}, {}
    for (time, d), ids in cells.items() if times else ():
        j, row = ds.setdefault(d, divmod(len(ds), size))
        blocks.setdefault(j, []).extend((i, row, times[time]) for i in ids)
    ds = list(ds)
    for j, block in blocks.items():
        ids, rows, cols = zip(*block)
        yield list(ids), (kernel(k * np.array(ds[j * size:(j + 1) * size])[:, None]), units,
                          (np.array(rows), np.array(cols)))


def _gk15_panels(f, lo, hi, kernel=None, members=((None, 0.0),)):
    """Vectorized GK15 on a batch of panels, for each member of a spec:
    (integral, error_estimate, abs_integral) as (members, panels) arrays, with
    the QUADPACK error heuristic, and the node count.  abs_integral integrates
    the magnitude, so the roundoff floor counts the integrand's rounding.  The
    members' integrands come from ``_integrands`` (f the spec's integrand) on
    the panels lo to hi, which they share: each member a row alone or in a
    block (``_gk15_blocks``).
    """
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    k = (mid[:, None] + half[:, None] * _XGK).ravel()
    ids, parts = [], []
    for i, fk in _integrands(f, k, kernel, members):
        ids.append(i)
        parts.append(_gk15_blocks(*fk, half) if len(fk) == 3 else _gk15_reduce(*fk, half))
    if len(parts) == 1 and ids[0] in (0, list(range(len(members)))):  # all, in order
        rows = tuple(x.reshape(len(members), -1) for x in parts[0])
    else:  # rows go back in member order
        rows = tuple(np.empty((len(members), lo.size), np.result_type(*x)) for x in zip(*parts))
        for i, part in zip(ids, parts):
            for row, x in zip(rows, part):
                row[i] = x
    return (*rows, k.size)


def _adaptive_gk(f, breakpoints: np.ndarray, atol: float, rtol: float,
                 max_panels: int = 4000, kernel=None, members=None, prior=None):
    """Adaptive GK15 over the panel decomposition given by breakpoints.

    Panels live in parallel arrays (QUADPACK-style bookkeeping); each pass
    splits the n // 8 worst panels (at least 1, at most 16), chosen by a
    stable sort on the error estimate, and appends their halves.

    It stops when the summed error meets tol = max(atol, rtol |value|), at
    max_panels, or at the roundoff floor: every panel's error is at least
    50 eps times its integral of the integrand's magnitude, so once that
    floor, summed over the panels, reaches tol, no split can meet tol, and
    the driver stops as soon as the error above the floor is within tol
    (QUADPACK's ier = 2).  The returned error still includes the floor.

    With members, a spec's members (f its integrand) are rows of one panel
    set, each pass evaluating each time and kernel(k d) once for the rows
    still running.  Each row keeps its own error, tol and stopping tests
    and is dropped, its panels too, as soon as it stops; a pass splits the
    panels with the worst err_i / tol_i over the rows left.  The rows are
    three (members, panels) arrays.  Returns one (value, error,
    abs_integral, evals) per member, or the one of f.

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
            evals += 15 * new_lo.size
            new = _gk15_panels(f, new_lo, new_hi, kernel, [members[i] for i in running])[:3]
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


def _rays(f, wave, members, wings, k0, top):
    """The wings of members i = (time, d) over [k0[i], inf), each kernel(k
    d) W_i(k) f(k), with the scale f real and kernel(x) = 2 Re(e^{ix} A(x))
    on the real axis (wave: x -> A(x)) and W_i analytic, all on Re k >=
    k0[i].  By Cauchy's theorem the wave e^{ikd} A(kd) integrates along the
    ray k0 + iy and its conjugate e^{-ikd} conj A(conj(k) d) along k0 - iy,
    where both decay as e^{-yd} (Huybrechs and Vandewalle, SIAM J. Numer.
    Anal. 44, 2006); f and A on the lower ray are the conjugates of their
    values on the upper one, and wings[i] gives W_i on both from the upper
    ray's nodes.  Gauss-Laguerre in u = y d with 28 nodes gives the value
    and with 16 its error, |Q28 - Q16| plus the roundoff floor of the 28
    nodes' |f|.

    On the real axis, GK15 integrates the member's own time factor against
    the smooth envelope f 2|A(k d)|, which bounds the kernel and its
    magnitude from k d = 5, over the panels that meet [k0[i], top[i]] of
    one row of geometric panels, each of ratio at most _ENVELOPE_RATIO,
    from the least k0 to the largest top: the integral of the magnitude is
    that of |time value| + time magnitude, and that of |time value - W|
    joins the error, which is W's Gaussian part where the time factor is
    the one W continues.  One pass for every member: f and A once per
    distinct (k0, d), each time once on that row, each wings callable once
    on its members' upper rays and that row, and the envelope's panel sums
    as matrix products of the time rows and the spatial ones.  Returns
    (value, error, abs_integral, evaluations) arrays."""
    n, d = _RAY_Y.size, np.array([d for _, d in members])
    # the distinct (k0, d), times, wings callables and (time, wings) pairs,
    # and per member the index of its own among each
    spatial, s_at = _index(zip(k0.tolist(), d.tolist()))
    times, t_at = _index(time for time, _ in members)
    fns, w_at = _index(wings)
    pairs, p_at = _index(zip(t_at.tolist(), w_at.tolist()))
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
    u, m = np.empty((len(times), kr.size), complex), np.empty((len(times), kr.size))
    for j, time in enumerate(times):
        u[j], m[j] = _product(time(kr), 1.0)
    w, w_real = np.empty((2, d.size, n), complex), np.empty((len(fns), kr.size), complex)
    for j, fn in enumerate(fns):
        ids = (w_at == j).nonzero()[0]
        on_ray, conj_ray = fn(np.concatenate((up[s_at[ids]].ravel(), kr)))  # W(k), W(conj k)
        w[0, ids], w[1, ids] = (x[:-kr.size].reshape(ids.size, n) for x in (on_ray, conj_ray))
        w_real[j] = on_ray[-kr.size:]
    hm = h[s_at]
    q = (hm * w[0] + hm.conj() * w[1]) @ _RAY_W.T
    floor = _ROUNDOFF * ((np.abs(hm) * np.abs(w).sum(axis=0)) @ _RAY_W[0])
    # per panel, GK15 of every time row (and (time, wings) row) against every
    # envelope row as one matrix product; a member sums its own entry over
    # the panels that meet its span
    env = (f(kr) * (2.0 * np.abs(wave(kr * ds[:, None])))).reshape(-1, panels, 15)
    mine = half[:, None] * ((edges[1:, None] > k0) & (edges[:-1, None] < top))
    t, p = (list(x) for x in zip(*pairs))
    absint, off = ((((x.reshape(-1, panels, 15) * _WGK).transpose(1, 0, 2)
                     @ env.transpose(1, 2, 0))[:, at, s_at] * mine).sum(axis=0)
                   for x, at in ((np.abs(u) + m, t_at), (np.abs(u[t] - w_real[p]), p_at)))
    return q[:, 0], np.abs(q[:, 0] - q[:, 1]) + floor + off, absint, np.full(d.size, 2 * n + kr.size)


@functools.lru_cache(maxsize=16)
def _seeds(k_hi: float) -> tuple:
    # 0, k_hi and 17 geometric points for the low-k structure of k^p * rational
    return (0.0, k_hi, *np.geomspace(k_hi * _SEED_DEPTH, k_hi, 17))


def integrate_damped_group(spec: DampedKernelSpec, atol: float = 1e-16,
                           rtol: float = 1e-10, max_panels: int = 4000) -> list:
    """Integrate every member of spec over [0, inf) on one head panel set.

    The Gaussian envelope is dead (< 1e-300) beyond k_hi = sqrt(750/w).  The
    head's seed panels are geometric below k_hi and at half periods of the
    fastest oscillation across the members, cut at the spec's live edge
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
        n_osc = int(k_hi / h)
        if n_osc > 1:
            stride = max(1, int(math.ceil(n_osc / 600)))  # at most 600 seeds
            pts.append(np.arange(1, n_osc + 1, stride) * h)
    pts = np.sort(np.concatenate(pts))  # np.unique's steps, without its overhead
    breakpoints = pts[np.concatenate(((True,), pts[1:] != pts[:-1]))]
    k_live = spec.live_edge if spec.wings else min(spec.live_edge, k_hi)
    edge = np.concatenate((breakpoints[breakpoints < k_live], (k_live,)))
    heads = _adaptive_gk(spec.integrand, edge, 0.5 * atol, 0.5 * rtol, max_panels, kernel,
                         members)
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
    geometric panels, refined as one run per stretch.  A ray member's
    integral of the magnitude is its envelope's over the panels that cover
    [k_ray, k_hi + 80 half periods], the span that the head which ran on to
    k_hi and the QAWF tail past it would have integrated, and 50 eps of it
    joins its error.
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
        runs = _adaptive_gk(spec.integrand, np.geomspace(k_live, end, 8 * n_dec + 1), atol, rtol,
                            kernel=spec.kernel, members=[members[i] for i in ids])
        for x, y in zip(out, zip(*runs)):
            x[ids] = y
    ids = ray.nonzero()[0]
    if ids.size:
        k0 = k_ray[ids]
        top = np.maximum(k0, k_hi + _SPAN_HALF_PERIODS * math.pi / d[ids])
        value, error, absint, evals = _rays(spec.integrand, spec.wave, [members[i] for i in ids],
                                            [spec.wings[i] for i in ids], k0, top)
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


def integrate_fixed_group(f, edges: np.ndarray, kernel, members, bound: float,
                          atol: float = 1e-16, rtol: float = 1e-10) -> list:
    """Integrate every member (time, d) of f and kernel, as a spec's, over
    [0, inf) in one GK15 pass on the panels between edges: its error is their
    summed estimates plus bound, on its integral of |f| past edges[-1].  One
    that misses the tolerance refines through ``_adaptive_gk``, seeded with
    the panels, with up to 4000 more.  Returns what integrate_damped_group does."""
    lo, hi = edges[:-1], edges[1:]
    *rows, nodes = _gk15_panels(f, lo, hi, kernel, members)
    sums = [(v, e, a, nodes) for v, e, a in zip(*(x.sum(axis=1) for x in rows))]
    miss = [i for i, (v, e, _, _) in enumerate(sums) if e + bound > max(atol, rtol * abs(v))]
    if miss:
        for i, (*run, evals) in zip(miss, _adaptive_gk(
                f, edges[:0], atol, rtol, lo.size + 4000, kernel, [members[i] for i in miss],
                (lo, hi, rows if len(miss) == len(members) else [x[miss] for x in rows]))):
            sums[i] = (*run, evals + nodes)
    return [_result(value, err + bound, absint, evals, atol, rtol)
            for value, err, absint, evals in sums]
