"""Harvesting engine: the momentum integrals of the three coupling models,
the closed-form Gaussian time kernels, the two-qubit X-state with its
negativity and concurrence, and the positivity diagnostics.

Every matrix element is one term, prefactor * int_0^inf dk k^p kern(kd)
time(k) / (4u+9)^6 with u = (a0 k)^2, and one engine evaluates each term
from its share (p, a0 and T, which fix kern), its clock (time(k) with its
t_BA and gaps), d and the prefactor:

    term  time(k)              wings      prefactor / (e^2 a0^q T^2 S)
    L     G(k)                 -           C_L/pi
    M     K(k, t_BA)           algebraic  -C_M/pi rel e^{i Omega (t_A+t_B)}
    L_AB  e^{-i k t_BA} G(k)   -           C_L/pi rel e^{-i Omega t_BA}

    model        C_L    C_M    p  q  kern   rel
    EM dipole:   49152  24576  3  2  j0+j2  cos(theta)
    UdW scalar:  32768  16384  5  4  j0     1
    derivative:  32768  16384  7  4  j0     1

with S = exp(-T^2 Omega^2/2), G(k) = exp(-T^2 (k^2/2 + Omega k)), kern = 1
for L, and K(k, t_BA) the time kernel ``scaled_time_kernel`` at d_omega =
Omega_A - Omega_B.  In M, Omega is the mean gap (Omega_A + Omega_B)/2, so
one row serves every gap: pi T^2/2 S e^{i Omega (t_A+t_B)} K is the ordered
double time integral ``oracle.time_integral_closed``.  Like every time
factor, K is evaluated for all of a group's clocks at once.  M's head stops
at the live edge, where its Gaussian part is e^-60 below its peak, and a
rigorous bound on that part past it (``_live_edge``) joins its error.  Its
erfc wings decay only algebraically in k; past the edge they are analytic
(``_time_wings``, the far-field series continued to complex k), and so is
kern, as two waves e^{+-ikd} times algebraic factors (``_KERN_WAVE``): M
takes them along the rays k0 +- iy, where they decay as e^{-yd}, or, at d =
0, on the real axis out to the rational cutoff.  L and L_AB have no wings:
one pass of QUADPACK's 31-point Gauss-Kronrod rule on a fixed panel set,
panels up to four half periods wide, to where their Gaussian is e^-60 down
(``_fixed``), its bound past the set joining the error.  The
derivative coupling differs from the scalar one by exactly k^2 in every
integrand.  S at the mean gap stays out of the integrals as a log scale, so
the sign of |M| - L (the harvesting criterion) is available even where the
values underflow (Omega T > ~38); a pair whose terms relative to it leave
double range (very unequal gaps), or whose M has no finite phase e^{i Omega
(t_A+t_B)}, raises ValueError, and a term view where its own term does.

``compute_terms_many`` evaluates a batch of pairs and shares the work: the M
terms with the same scale k^p / (4u+9)^6 and kern integrate on one head
panel set, the L and the L_AB terms with the same scale and Omega on one
fixed panel set, each distinct (clock, d) once and to its own tolerance,
and each pass evaluates time(k) of every clock in one call and kern(kd)
once.  The engine, ``_harvest``, takes a batch as columns, one array per
parameter (a survey grid's without a pair per point), applies the
prefactors and builds the results on arrays, in a float's order of
operations, so that a point has the bits it has alone.  Batches, grids and
the term views all call it; ``compute_terms`` is its one-pair case.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from .atoms import AtomSpec, SwitchingKind, _outside_lightcone
from .specfun import (_GAUSS_DEAD, _PANEL_HALF_PERIODS, _SEED_DEPTH, DampedKernelSpec,
                      QuadratureConvergenceError, QuadratureResult, _j0_plus_j2_wave, _j0_wave,
                      _time_wings, integrate_damped_group, integrate_fixed_group,
                      scaled_time_kernel, spherical_bessel_j0, spherical_bessel_j0_plus_j2)

__all__ = [
    "ModelKind",
    "DetectorPair",
    "HarvestTerms",
    "PositivityReport",
    "local_term",
    "nonlocal_term",
    "cross_noise_term",
    "compute_terms",
    "compute_terms_many",
    "assemble_state",
    "negativity_leading",
    "positivity_report",
]

# prefactors of the closed-form kernels (perturbed by the self-check
# mutation hook; do not inline)
EM_LOCAL_COEFF = 49152.0
EM_NONLOCAL_COEFF = 24576.0
SCALAR_LOCAL_COEFF = 32768.0
SCALAR_NONLOCAL_COEFF = 16384.0
# the split behind EM_LOCAL_COEFF, read by ``oracle.em_decomposition_identity``
EM_DECOMP_IDENTITY_COEFF = 663552.0
EM_DECOMP_DYADIC_COEFF = 24576.0
EM_DECOMP_M_J2_COEFF = 2359296.0

# a pair is harvestable where the scaled N^(2) exceeds ERROR_FACTOR times
# its quadrature error, and positivity holds to ERROR_FACTOR times the
# error of the local and cross terms
ERROR_FACTOR = 10.0


class ModelKind(Enum):
    EM_DIPOLE = "em"
    UDW_SCALAR = "udw"
    UDW_DERIVATIVE = "derivative"


def _model_params(model: ModelKind):
    # (C_L, C_M, p, q, kern), read at call time
    if model is ModelKind.EM_DIPOLE:
        return EM_LOCAL_COEFF, EM_NONLOCAL_COEFF, 3, 2, spherical_bessel_j0_plus_j2
    if model is ModelKind.UDW_SCALAR:
        return SCALAR_LOCAL_COEFF, SCALAR_NONLOCAL_COEFF, 5, 4, spherical_bessel_j0
    return SCALAR_LOCAL_COEFF, SCALAR_NONLOCAL_COEFF, 7, 4, spherical_bessel_j0


@dataclass(frozen=True)
class DetectorPair:
    atom_a: AtomSpec
    atom_b: AtomSpec
    model: ModelKind
    coupling: float = 1.0

    def __post_init__(self):
        a, b = self.atom_a, self.atom_b
        if not isinstance(self.model, ModelKind):
            raise ValueError(f"model must be a ModelKind, not {self.model!r}")
        if not a.orientation.is_identity:
            raise ValueError("atom A defines the reference frame; its "
                             "orientation must be the identity")
        if not (0 < self.coupling < math.inf):
            raise ValueError("coupling must be positive and finite")
        if self.coupling * self.coupling == math.inf:
            raise ValueError(f"coupling {self.coupling:g} is too large: its square, "
                             "the terms' factor e^2, overflows")
        # not computed correctly yet, so rejected: M uses atom A's a0 and T
        # for both atoms, and the EM kernel assumes B on A's 2p_z axis
        if a.a0 != b.a0 or a.switching_width != b.switching_width:
            raise ValueError("atoms with unequal a0 or unequal switching "
                             "widths are not supported")
        # as floats: inf, not a warning, past double range
        dx = [float(xb) - float(xa) for xa, xb in zip(a.position, b.position)]
        if not all(map(math.isfinite, dx)):
            raise ValueError(f"the separation B - A of positions {a.position} and "
                             f"{b.position} overflows")
        if not math.isfinite(float(b.switching_center) - float(a.switching_center)):
            raise ValueError("the delay t_B - t_A of the switching centres overflows")
        if self.model is ModelKind.EM_DIPOLE and (dx[0] or dx[1]):
            raise ValueError("EM dipole pairs need atom B on atom A's z axis")

    @property
    def separation(self) -> float:
        # |dx| at a power-of-two scale, so the squares cannot overflow: the
        # bits of np.linalg.norm(dx) wherever they neither overflow nor underflow
        dx = np.asarray(self.atom_b.position) - np.asarray(self.atom_a.position)
        e = np.frexp(np.abs(dx).max())[1]
        return float(np.ldexp(np.linalg.norm(np.ldexp(dx, -e)), e))

    @property
    def cos_relative_angle(self) -> float:
        if self.model is ModelKind.EM_DIPOLE:
            return math.cos(self.atom_b.orientation.theta)
        return 1.0

    @property
    def identical(self) -> bool:
        # a0 and T are equal for every pair (__post_init__)
        return self.atom_a.omega == self.atom_b.omega


@dataclass(frozen=True)
class HarvestTerms:
    """Computed matrix elements, each equal to exp(log_scale) times its
    *_scaled companion.  The scaled values survive where exp(log_scale)
    underflows (large Omega T), which keeps the sign of |M| - L meaningful
    at any gap.  quadrature_errors are scaled consistently with the scaled
    values."""

    l_aa: float
    l_bb: float
    l_ab: complex
    m: complex
    quadrature_errors: dict
    log_scale: float
    l_aa_scaled: float
    l_bb_scaled: float
    l_ab_scaled: complex
    m_scaled: complex

    def __post_init__(self):
        if self.l_aa_scaled < 0 or self.l_bb_scaled < 0:
            raise ValueError("local terms must be nonnegative")

    @property
    def negativity2_scaled(self) -> float:
        return negativity_leading(self.l_aa_scaled, self.l_bb_scaled,
                                  abs(self.m_scaled))

    @property
    def negativity2(self) -> float:
        return math.exp(self.log_scale) * self.negativity2_scaled

    @property
    def negativity(self) -> float:
        return max(0.0, self.negativity2)

    @property
    def concurrence(self) -> float:
        return 2.0 * self.negativity

    def negativity2_error_scaled(self) -> float:
        return _negativity2_error(self.quadrature_errors)

    def harvestable(self) -> bool:
        return bool(self.negativity2_scaled > ERROR_FACTOR * self.negativity2_error_scaled())


@dataclass(frozen=True)
class PositivityReport:
    e1: float
    e2_fourth_order: float  # informational: -|M|^2 appears only at O(e^4)
    e3: float
    e4: float
    cross_inequality: float  # L_AA L_BB - |L_AB|^2, must be >= -tolerance
    tolerance: float
    passed: bool


# ----------------------------------------------------------------------------
# The term engine
# ----------------------------------------------------------------------------

# natural logs of the smallest normal and the largest double
_LOG_TINY, _LOG_HUGE = math.log(sys.float_info.min), math.log(sys.float_info.max)

# where k^p / (4 a0^2 k^2 + 9)^6 has rolled off by ~1e-13 of its peak, in
# units of 1/(2 a0): the cutoff of the algebraic erfc wings
_WING_CUTOFF = {3: 120.0, 5: 400.0, 7: 4000.0}

# the wave A of the spatial kernel of p, kern(x) = 2 Re(e^{ix} A(x)) at real x
_KERN_WAVE = {3: _j0_plus_j2_wave, 5: _j0_wave, 7: _j0_wave}

# past the live edge and a fixed panel set (``_fixed``) the Gaussian is e^-_LIVE_EXPONENT down
_LIVE_EXPONENT = 60.0
_FIXED_PANELS, _KNEE_SHARE = 4000, 1.0 / 3.0
_SQRT2 = math.sqrt(2.0)


# A batch of pairs is columns over its points (``_columns``): "model", a list,
# and a float per point for each of _COLUMNS (d the separation, rel the
# orientation factor, e2 the squared coupling).  Per point a term is a member
# (share, clock, d) and a prefactor (``_table``).  share = ("L" or "M", p, a0,
# T, kern), T that of exp(-T^2 k^2/2), kern the spatial kernel (None for L):
# M terms of one share, and L or L_AB of one share and Omega, integrate on one
# panel set, one member per distinct (clock, d).  clock = (kind, t_BA,
# frequency), ("L", 0, Omega), ("M", t_BA, Omega_A - Omega_B) or ("L_AB",
# t_BA, Omega), fixes time(k) (``_time``).
_COLUMNS = ("a0", "T", "omega_a", "omega_b", "t_a", "t_b", "d", "rel", "e2")
_NAMES = ("l_aa", "l_bb", "m", "l_ab")


def _time(T: float, clocks: list, k, wings: bool = False):
    """The (value, magnitude) time factors of a group's clocks (of one kind)
    at the nodes k, a row each: the time kernel for M, whose erfc wings decay
    only algebraically, and e^{-ik t_BA} G(k) for L_AB and L (t_BA = 0); each
    oscillates with period 2 pi/|t_BA|.  With wings, M's ``_time_wings``."""
    _, t_ba, omega = zip(*clocks)
    if wings or clocks[0][0] == "M":
        kernel = _time_wings if wings else scaled_time_kernel
        if len(clocks) == 1:  # the kernel's path of one clock, on its row
            return tuple(x[None] for x in kernel(k[0] if wings else k, *t_ba, T, d_omega=omega[0]))
        return kernel(k, np.array(t_ba), T, d_omega=np.array(omega))
    e = 0.5 * T * T * k * k + T * T * np.array(omega)[:, None] * k  # G = exp(-e), |G| (1 + e)
    g = np.exp(-e)
    g_mag = g * (1.0 + e)
    if not any(t_ba):
        return g, g_mag
    t = np.array(t_ba)[:, None]
    phase = np.exp(-1j * k * t)
    value, mag = phase * g, (1.0 + k * np.abs(t)) * np.abs(g) + np.abs(phase) * g_mag
    return (value, mag) if all(t_ba) else (np.where(t != 0.0, value, g),
                                           np.where(t != 0.0, mag, g_mag))


def _scale(p: int, a0: float):
    # k -> k^p / (4u+9)^6, the last factor of every integrand
    return lambda k: k ** p / (4.0 * (a0 * k) ** 2 + 9.0) ** 6


def _log_upper_gamma(n: int, x: float) -> float:
    # log Gamma(n, x) = log((n-1)! e^-x sum_{j<n} x^j/j!) for integer n and x >= 1
    return (math.lgamma(n) - x + (n - 1) * math.log(x)
            + math.log(sum(x ** (j - n + 1) / math.factorial(j) for j in range(n))))


def _live_edge(share: tuple, members) -> tuple[float, tuple]:
    """The live edge k_live of a group of M members (clock, d) of one share,
    past which every member's Gaussian part, times k^p, is e^-_LIVE_EXPONENT
    below its peak, and per member a rigorous bound on the integral of that
    part's |f| over [k_live, inf), in the units of its bare integral.  With
    b = T k/sqrt2, c = T (Omega_A - Omega_B)/(2 sqrt2), the Gaussian part is
    2 e^{-(b+c)^2} and k_live = (sqrt(_LIVE_EXPONENT) + max|c|) sqrt2/T, so
    that past it b - |c| >= sqrt(60) > 7: the wings are the Faddeeva
    function's far field.  The bound takes |kern| <= 1 and the rational <=
    9^-6: with y = b - |c| >= y0 past the edge, (y + |c|)^p <= (y
    y_live/y0)^p, and the integral of y^p e^{-y^2} is the upper incomplete
    gamma Gamma((p+1)/2, y0^2)/2 (p is odd, so (p+1)/2 is an integer).  In
    logs: a bound past double range is inf."""
    _, p, _, T, _ = share
    cs = {c: abs(T * c[2]) / (2.0 * _SQRT2) for c in dict.fromkeys(c for c, _ in members)}
    root, c_max = math.sqrt(_LIVE_EXPONENT), max(cs.values())
    y_live, log_sqrt_w = root + c_max, math.log(T) - 0.5 * math.log(2.0)
    part = {}
    for clock, c in cs.items():
        y0 = root + (c_max - c)
        log_b = (-6.0 * math.log(9.0) + p * math.log(y_live / y0) - (p + 1) * log_sqrt_w
                 + _log_upper_gamma((p + 1) // 2, y0 * y0))
        part[clock] = math.exp(log_b) if log_b < _LOG_HUGE else math.inf
    return y_live * _SQRT2 / T, tuple(part[clock] for clock, _ in members)


def _spec(share: tuple, members) -> DampedKernelSpec:
    """The quadrature spec of a group of M members (clock, d) of one share:
    the members with their clocks as data, whose time factors and wings
    (``_time``) a pass evaluates in one call for all of them, the share's
    wing cutoff, the group's live edge with each member's bound past it
    (``_live_edge``) and the kernel's wave; its integrand the scale k^p /
    (4u+9)^6, the last factor of every one, and its kernel the share's."""
    _, p, a0, T, kernel = share
    k_live, bounds = _live_edge(share, members)
    return DampedKernelSpec(
        damping_width=0.5 * T * T,
        oscillation_lengths=tuple(dict.fromkeys(2.0 * math.pi / abs(t) for (_, t, _), _ in members
                                                if t)),
        integrand=_scale(p, a0),
        members=tuple(members),
        time=functools.partial(_time, T),
        kernel=kernel,
        cutoff=_WING_CUTOFF[p] / (2.0 * a0),
        live_edge=k_live,
        edge_bounds=bounds,
        wings=functools.partial(_time, T, wings=True),
        wave=_KERN_WAVE[p],
    )


def _fixed(share: tuple, omega: float, members) -> tuple:
    """integrate_fixed_group's arguments but the tolerances for the L or L_AB
    members (clock, d) of one share at gap Omega: panels to k_end, where
    E(k) = T^2 (k^2/2 + Omega k) is _LIVE_EXPONENT, h wide, _PANEL_HALF_PERIODS
    times the smaller of the Gaussian's width 1/sqrt(T^2 + (T^2 Omega)^2/4)
    and the half period pi/(d + |t_BA|), at most _FIXED_PANELS; nearer the
    knee 3/(2 a0), one to _KNEE_SHARE of it, then _KNEE_SHARE of their k
    wide.  The bound past k_end takes |kern| <= 1, the rational <= 9^-6 and
    E above its tangent, of slope s: in logs,
    e^-_LIVE_EXPONENT 9^-6 times int_0^inf (k_end + x)^p e^{-sx} dx =
    k_end^(p+1)/y sum_{j<=p} p!/((p-j)! y^j), y = s k_end = 60 + (T k_end)^2/2."""
    _, p, a0, T, kernel = share
    x, span = T * omega, max(d + abs(c[1]) for c, d in members)
    k_end = 2.0 * _LIVE_EXPONENT / (math.hypot(x, math.sqrt(2.0 * _LIVE_EXPONENT)) + x) / T
    h = _PANEL_HALF_PERIODS * min(1.0 / (T * math.hypot(1.0, 0.5 * x)),
                                  math.pi / span if span > 0.0 else math.inf)
    edges, lo = [], 0.0
    if _KNEE_SHARE * 1.5 / a0 < h:
        top, lo = min(_KNEE_SHARE * 1.5 / a0, k_end), min(h / _KNEE_SHARE, k_end)
        n = math.ceil(math.log(lo / top) / math.log1p(_KNEE_SHARE))
        edges = [[0.0], np.geomspace(top, lo, n + 1)[:-1]]
    n = min(math.ceil((k_end - lo) / h), _FIXED_PANELS)  # np.linspace(lo, k_end, n + 1)'s steps
    edges.append(np.arange(n + 1) * ((k_end - lo) / max(n, 1)) + lo)
    edges[-1][-1] = k_end
    y = _LIVE_EXPONENT + 0.5 * (T * k_end) ** 2
    log_b = ((p + 1) * math.log(k_end) - math.log(y) - _LIVE_EXPONENT - 6.0 * math.log(9.0)
             + math.log(sum(math.perm(p, j) / y ** j for j in range(p + 1))))
    return (_scale(p, a0), np.concatenate(edges), kernel, list(members),
            math.exp(log_b) if log_b < _LOG_HUGE else math.inf, functools.partial(_time, T))


def _quadratures(members: list, atol: float, rtol: float) -> tuple[list, np.ndarray]:
    """The bare integrals of the distinct members (share, clock, d), the M of
    one share in one integrate_damped_group call, the L or L_AB of one share
    and Omega in one integrate_fixed_group call (``_fixed``), and per member
    the index of its own: a QuadratureResult, or the QuadratureConvergenceError
    of a member that missed the tolerance.  Raises ValueError unless atol and
    rtol are finite and >= 0."""
    for name, tol in (("atol", atol), ("rtol", rtol)):
        if not 0.0 <= tol < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, not {tol!r}")
    index, groups = {member: j for j, member in enumerate(dict.fromkeys(members))}, {}
    for (share, clock, d), j in index.items():
        groups.setdefault((share, None if clock[0] == "M" else clock[2]), []).append(
            (j, (clock, d)))
    done = {}
    for (share, omega), group in groups.items():
        js, group = zip(*group)
        quads = (integrate_damped_group(_spec(share, group), atol, rtol) if omega is None
                 else integrate_fixed_group(*_fixed(share, omega, group), atol, rtol))
        done.update(zip(js, quads))
    return [done[j] for j in range(len(done))], np.array(list(map(index.get, members)))


# Term by term, floats and complex floats with the bits of Python's scalar
# arithmetic, which numpy's vectorized power, exp and complex product miss
# in the last bit (libm's pow and exp; multiply-adds unfused)

def _power(x, n):
    # x ** n of a float, or term by term of an array (n a scalar or per
    # term); inf past double range, where a float's pow raises (n is even)
    xs, ns = np.ravel(x).tolist(), np.ravel(n).tolist() if np.ndim(n) else [n] * np.size(x)
    try:
        out = list(map(pow, xs, ns))
    except OverflowError:
        out = [v ** e if not abs(v) >= 2.0 ** (1024 / e) else math.inf for v, e in zip(xs, ns)]
    return out[0] if np.ndim(x) == 0 else np.array(out).reshape(x.shape)


def _exp(x: np.ndarray) -> np.ndarray:
    return np.array(list(map(math.exp, x.ravel().tolist()))).reshape(x.shape)


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a * b, a real x as x + 0j
    real = a.real * b.real - a.imag * b.imag
    out = np.empty(real.shape, dtype=complex)
    out.real, out.imag = real, a.real * b.imag + a.imag * b.real
    return out


def _mean_gap_factor(omega_a, omega_b, t_a, t_b, T) -> tuple:
    """M's k-independent time factor exp(-T^2 Omega^2/2 + i Omega (t_A + t_B))
    at the mean gap Omega = (Omega_A + Omega_B)/2, as (log modulus, phase),
    of floats or term by term of arrays."""
    mean = 0.5 * (omega_a + omega_b)
    phase = np.exp(1j * (mean * (t_a + t_b)))
    return -0.5 * _power(T * mean, 2), phase if np.ndim(phase) else complex(phase)


def _columns(pairs) -> dict:
    # the columns of a batch of pairs, the engine's input
    a, b = [pair.atom_a for pair in pairs], [pair.atom_b for pair in pairs]
    return {"model": [pair.model for pair in pairs], "a0": [x.a0 for x in a],
            "T": [x.switching_width for x in a], "omega_a": [x.omega for x in a],
            "omega_b": [x.omega for x in b], "t_a": [x.switching_center for x in a],
            "t_b": [x.switching_center for x in b], "d": [pair.separation for pair in pairs],
            "rel": [pair.cos_relative_angle for pair in pairs],
            "e2": [pair.coupling ** 2 for pair in pairs]}


def _point_names(pairs, cols: dict):
    # i -> the name of point i of a batch of pairs in its errors: the pair, its point, its coupling
    return lambda i: (f"pair {i} at d = {cols['d'][i]:g}, t_BA = "
                      f"{cols['t_b'][i] - cols['t_a'][i]:g}, coupling {pairs[i].coupling:g}")


def _table(cols: dict, names) -> dict:
    """The terms names (of _NAMES) of a batch given as columns: "members",
    per term its points' (share, clock, d); its prefactor coeff a0^q T^2
    rel phase exp(scale) as (names, points) arrays "coeff" (with e^2 and
    sign), "rel", "phase" and "scale" (the Gaussian kept out); "log_scale",
    S at the mean gap, M's scale and that of them all; and the columns "a0",
    "T", "q", "a0q", "d" and "t_ba".  Raises ValueError at the first point
    whose scale k^p / (4u+9)^6 the quadrature cannot follow: its knee at
    k = 3/(2 a0) must lie above the head's lowest seed, and k^p finite out
    to a term's last node, the wing cutoff or the Gaussian's dead point;
    and, with M among names, at the first whose phase (``_mean_gap_factor``)
    is not finite."""
    a0, T, oa, ob, ta, tb, d, rel, e2 = np.array([cols[c] for c in _COLUMNS], dtype=float)
    models = cols["model"]
    c_l, c_m, ps, qs, kern = zip(*([_model_params(models[0])] * len(models)
                                   if models.count(models[0]) == len(models)
                                   else map(_model_params, models)))
    p, q = np.array(ps), np.array(qs)
    lowest = {x: 0.5 * _WING_CUTOFF[x] * math.exp(-_LOG_HUGE / x) for x in set(ps)}
    a0_min, k_hi = np.array([lowest[x] for x in ps]), math.sqrt(2.0 * _GAUSS_DEAD) / T
    a0_max = 1.5 / (_SEED_DEPTH * k_hi)
    ok = (a0_min < a0) & (a0 <= a0_max) & (p * np.log(k_hi) < _LOG_HUGE)
    if not ok.all():
        i = int(ok.argmin())
        raise ValueError(f"a0 = {a0[i]:.6g} at T = {T[i]:.6g} is outside the range of the "
                         f"momentum integrals, {a0_min[i]:.3g} < a0 <= {a0_max[i]:.6g}")
    t_ba, local, ones = tb - ta, e2 * np.divide(c_l, math.pi), np.ones_like(a0)
    log_scale, phase = _mean_gap_factor(oa, ob, ta, tb, T)
    if "m" in names and not np.isfinite(phase).all():
        i = int(np.isfinite(phase).argmin())
        raise ValueError(f"M's phase exp(i Omega (t_A + t_B)) is not finite at Omega = "
                         f"{0.5 * (oa[i] + ob[i]):.6g}, t_A + t_B = {ta[i] + tb[i]:.6g}")
    a0s, Ts, zeros = a0.tolist(), T.tolist(), [0.0] * len(ps)
    L = list(zip(repeat("L"), ps, a0s, Ts, repeat(None)))
    M = list(zip(repeat("M"), ps, a0s, Ts, kern))
    scale_a, scale_b = -0.5 * _power(T * np.array((oa, ob)), 2)  # L_mumu's
    rows = []  # per term: members, coeff, rel, phase, scale
    for name in names:
        if name in ("l_aa", "l_bb"):
            omega, scale = (oa, scale_a) if name == "l_aa" else (ob, scale_b)
            rows.append((zip(L, zip(repeat("L"), zeros, omega.tolist()), zeros), local, ones,
                         ones, scale))
        elif name == "m":
            # the time kernel at every gap; the k-independent rest of the
            # double time integral, _mean_gap_factor, goes into the prefactor
            rows.append((zip(M, zip(repeat("M"), t_ba.tolist(), (oa - ob).tolist()), d.tolist()),
                         -e2 * np.divide(c_m, math.pi), rel, phase, log_scale))
        else:
            rows.append((zip(M, zip(repeat("L_AB"), t_ba.tolist(), oa.tolist()), d.tolist()),
                         local, rel, np.exp(1j * (-oa * t_ba)), scale_a))
    members, *prefactor = zip(*rows)
    return {"members": list(map(list, members)), "log_scale": log_scale, "a0": a0, "T": T,
            "q": q, "a0q": _power(a0, q), "d": d, "t_ba": t_ba,
            **dict(zip(("coeff", "rel", "phase", "scale"), map(np.array, prefactor)))}


def _evaluate(table: dict, bare: list) -> tuple:
    """The terms' values, errors and integrals of the magnitude relative to
    exp(log_scale) from their bare ones as (names, points)
    arrays, and the log of a value's size where it leaves the normal
    doubles (-inf where exp(log_scale) is 0, so that the size is undefined),
    else nan: the one place a prefactor is applied, in a float's order of
    operations, so a point has the bits it has alone."""
    value, error, absint = bare
    shift = table["scale"] - table["log_scale"]
    T, rel = table["T"], table["rel"]
    size = shift + table["q"] * np.log(table["a0"]) + 2.0 * np.log(T) + (
        np.log(np.abs(table["coeff"])) + np.log(np.abs(value)))
    out = ~((_LOG_TINY < size) & (size < _LOG_HUGE) & (shift < _LOG_HUGE))
    shift = np.where(out, 0.0, shift)
    pref = table["coeff"] * table["a0q"] * T * T * (_exp(shift) if shift.any() else 1.0)
    return (_cmul(_cmul(pref * rel, table["phase"]), value), np.abs(pref) * np.abs(rel) * error,
            np.abs(pref) * absint, np.where(out, np.fmax(size, -np.inf), np.nan))


def _harvest(cols: dict, names, switching: SwitchingKind, atol: float, rtol: float,
             point=None) -> dict:
    """The terms names (of _NAMES) of a batch given as columns, each
    integrated with the batch's terms of its share, for
    ``compute_terms_many``, ``survey.run_grid`` and the term views: per name
    (value, error, abs_integral) relative to exp(log_scale) (L's values
    real); "quads" and "at", as ``_quadratures`` gives them; "failed", per
    point its first missed term's QuadratureConvergenceError or None;
    "cropped", where the switching, resolved as ``SwitchingKind.resolve``
    does, crops; "errors" by name and "crop_tail", a cropped point's bound
    2 erfc(crop_sigmas/sqrt(2)) times the terms' scaled integrals of |f|,
    else 0; "factor", exp(log_scale); and the columns "log_scale", "T", "d"
    and "t_ba".  Raises the ValueErrors of ``_table`` and ``_quadratures``,
    and the range error of the first point without a failed term, named by
    point(i) where given."""
    with np.errstate(all="ignore"):  # as float arithmetic: no warnings
        table = _table(cols, names)
        quads, at = _quadratures([m for ms in table["members"] for m in ms], atol, rtol)
        at = at.reshape(len(names), -1)
        # the bare (value, error, abs_integral) of each term, a failed one's estimate
        get = operator.attrgetter("value", "abs_error_estimate", "abs_integral")
        bare = np.array([get(getattr(quad, "result", quad)) for quad in quads])[at]
        value, error, absint, size = _evaluate(
            table, [bare[..., 0], bare[..., 1].real, bare[..., 2].real])
    missed = np.array([isinstance(quad, QuadratureConvergenceError) for quad in quads])[at]
    failed = missed.any(axis=0)
    bad = ~np.isnan(size) & ~failed
    if bad.any():
        i = int(bad.any(axis=0).argmax())
        raise ValueError(f"{point(i) + ': ' if point else ''}a term is "
                         f"exp({size[bad[:, i].argmax(), i]:.6g}) times exp(log_scale) "
                         f"= exp({table['log_scale'][i]:.6g}): outside double range")
    out = {key: table[key] for key in ("log_scale", "T", "d", "t_ba")}
    out.update(quads=quads, at=at, failed=[quads[at[missed[:, i].argmax(), i]] if f else None
                                           for i, f in enumerate(failed.tolist())])
    out.update((name, (v if name in ("m", "l_ab") else v.real, e, a))
               for name, v, e, a in zip(names, value, error, absint))
    cropped = (_outside_lightcone(out["d"], out["t_ba"], out["T"] / math.sqrt(2.0))
               if switching.variant == "auto"
               else np.full(out["d"].shape, switching.variant == "cropped_gaussian"))
    crop = np.zeros(cropped.shape)
    if cropped.any():
        tail_fraction = 2.0 * math.erfc(switching.crop_sigmas / math.sqrt(2.0))
        with np.errstate(all="ignore"):
            crop = np.where(cropped, tail_fraction * (
                0.5 * (out["l_aa"][2] + out["l_bb"][2]) + out["m"][2]), 0.0)
    out["errors"] = {**{name: out[name][1] for name in names}, "crop_tail": crop}
    out["cropped"], out["factor"] = cropped, _exp(out["log_scale"])
    return out


def _field(pair: DetectorPair, name: str, atol: float = 1e-16,
           rtol: float = 1e-10) -> tuple[complex, QuadratureResult]:
    """A field of ``compute_terms(pair)`` and its bare integral, from
    ``_harvest`` of its term alone, which no other term of a pair shares a
    group with: it raises its own QuadratureConvergenceError, then its own
    range error, and neither of another term."""
    cols = _columns([pair])
    out = _harvest(cols, (name,), SwitchingKind(), atol, rtol, _point_names([pair], cols))
    quad = out["quads"][out["at"][0, 0]]
    if isinstance(quad, QuadratureConvergenceError):
        raise quad
    return out["factor"][0] * out[name][0][0], quad


# ----------------------------------------------------------------------------
# Public views of the engine
# ----------------------------------------------------------------------------

def local_term(pair: DetectorPair, which: str = "A",
               atol: float = 1e-16, rtol: float = 1e-10) -> float:
    """Local vacuum-noise term L_mumu for one atom (orientation and
    separation independent); equal to the matching ``compute_terms`` field."""
    which = str(which).upper()
    if which not in ("A", "B"):
        raise ValueError(f"which must be 'A' or 'B', not {which!r}")
    return _field(pair, "l_aa" if which == "A" else "l_bb", atol, rtol)[0].real


def nonlocal_term(pair: DetectorPair, atol: float = 1e-16,
                  rtol: float = 1e-10) -> complex:
    """Nonlocal correlation term M (phase retained; |M| feeds the
    negativity).  One time kernel serves every gap.  It equals
    ``compute_terms(pair).m``, with or without include_cross."""
    return _field(pair, "m", atol, rtol)[0]


def cross_noise_term(pair: DetectorPair, atol: float = 1e-16,
                     rtol: float = 1e-10) -> complex:
    """Cross noise term L_AB: same spatial kernel as M, full-plane Gaussian
    time factor with phase exp(i (Omega+k) t_AB).  Identical atoms only;
    it equals ``compute_terms(pair).l_ab``."""
    if not pair.identical:
        raise ValueError("cross_noise_term requires identical atoms")
    return _field(pair, "l_ab", atol, rtol)[0]


# ----------------------------------------------------------------------------
# Terms, state assembly and diagnostics
# ----------------------------------------------------------------------------

def compute_terms(pair: DetectorPair, switching: SwitchingKind = SwitchingKind(),
                  include_cross: bool = True, atol: float = 1e-16,
                  rtol: float = 1e-10) -> HarvestTerms:
    """Evaluate every density-matrix element for the pair: the one-pair case
    of ``compute_terms_many``.

    L_AB is computed for identical atoms only; other pairs need
    ``include_cross=False``.  Cropped switching does not
    integrate a cropped window: it evaluates the same Gaussian closed forms
    and adds the error bound "crop_tail", 2 erfc(crop_sigmas/sqrt(2)) times
    the terms' scaled integrals of |f|.  That bound is known to understate
    what the crop leaks at large Omega T, by ~21 orders of magnitude for L
    at fig5b's parameters.  "auto" switching is resolved from the pair's
    separation and delay (``SwitchingKind.resolve``); the default is the
    uncropped Gaussian.
    Raises QuadratureConvergenceError where a term misses the tolerance, and
    ValueError where a term relative to exp(log_scale) leaves double range,
    where ``_table`` does: a0 outside its range, or M's phase not finite,
    and where no density matrix has the terms (``_state_fault``).
    """
    (terms,) = compute_terms_many([pair], switching, include_cross, atol, rtol)
    if isinstance(terms, QuadratureConvergenceError):
        raise terms
    return terms


def compute_terms_many(pairs, switching: SwitchingKind = SwitchingKind(),
                       include_cross: bool = True, atol: float = 1e-16,
                       rtol: float = 1e-10) -> list:
    """``compute_terms`` of every pair, sharing the momentum integrals.

    The pairs go to the engine as columns (``_harvest``).  The M terms of
    pairs with the same model, a0 and T are integrated on one head panel
    set (``specfun.integrate_damped_group``), each distinct (t_BA,
    Omega_A - Omega_B, d) once: a pass evaluates the time kernel of every
    (t_BA, Omega_A - Omega_B) in one call and the spatial kernel once per
    d, so a spacetime map (fig5a, fig5b) is one group.  The L_AB with the
    same model, a0, T and Omega are one Gauss-Kronrod pass on one fixed
    panel set for their largest d + |t_BA| (``specfun.integrate_fixed_group``),
    and each atom's L one on its own, so its bits depend on its model, a0, T
    and Omega alone.  A pair alone gives the bits it has in a group of one; in a
    larger group its M and L_AB may move by less than the reported errors.

    Returns one entry per pair: its HarvestTerms, or the
    QuadratureConvergenceError of its first term that missed the tolerance,
    which leaves the other pairs as they are.  Raises ValueError as
    ``compute_terms`` does, naming the pair, its point and its coupling where
    a term leaves double range or no density matrix has the terms
    (``_state_fault``).
    """
    pairs = list(pairs)
    if include_cross and not all(pair.identical for pair in pairs):
        raise ValueError("L_AB requires identical atoms; pass include_cross=False")
    if not pairs:
        return []
    names, cols = _NAMES[:3 + include_cross], _columns(pairs)
    point = _point_names(pairs, cols)
    h = _harvest(cols, names, switching, atol, rtol, point)
    scaled = [h[name][0] for name in names]
    # exp(log_scale) times each, as a float times a float or a complex
    full = [h["factor"] * v if v.dtype.kind == "f" else _cmul(h["factor"], v) for v in scaled]
    fault = _state_fault(*(np.where([f is not None for f in h["failed"]], 0.0, x)
                           for x in (full[0], full[1], np.abs(full[2]))))
    if fault:
        raise ValueError(f"{point(fault[0])}: {fault[1]}")
    keys = (*names, "crop_tail")
    errors = np.array([h["errors"][key] for key in keys]).T.tolist()
    out = []
    for i, (failed, e, cropped) in enumerate(zip(h["failed"], errors, h["cropped"].tolist())):
        l_ab = (full[3][i], scaled[3][i]) if include_cross else (0j, 0j)
        out.append(failed or HarvestTerms(
            l_aa=full[0][i], l_bb=full[1][i], l_ab=l_ab[0], m=full[2][i],
            quadrature_errors=dict(zip(keys[:len(names) + cropped], e)),
            log_scale=float(h["log_scale"][i]), l_aa_scaled=scaled[0][i],
            l_bb_scaled=scaled[1][i], l_ab_scaled=l_ab[1], m_scaled=scaled[2][i]))
    return out


def _negativity2_error(e: dict):
    # the error of the scaled N^(2) from the terms' errors by name (floats or arrays)
    return (e.get("m", 0.0) + 0.5 * (e.get("l_aa", 0.0) + e.get("l_bb", 0.0))
            + e.get("crop_tail", 0.0))


def negativity_leading(l_aa, l_bb, abs_m):
    """Leading-order negativity N^(2) of the X state; N = max(0, N^(2)).
    Of floats, or term by term of arrays with the same bits."""
    root = np.sqrt(_power(l_aa - l_bb, 2) + 4.0 * _power(abs_m, 2))
    return -0.5 * (l_aa + l_bb - root)


def _state_fault(l_aa, l_bb, abs_m) -> tuple[int, str] | None:
    """The first point whose terms no density matrix has, and why, or None:
    non-finite local terms, L_AA + L_BB > 1, or |M| > 1/2 (off the diagonal
    |rho_ij| <= 1/2).  Of floats (point 0) or arrays over points."""
    l_aa, l_bb, abs_m = np.atleast_1d(l_aa, l_bb, abs_m)
    with np.errstate(all="ignore"):
        faults = (~(np.isfinite(l_aa) & np.isfinite(l_bb)), l_aa + l_bb > 1.0, ~(abs_m <= 0.5))
    bad = faults[0] | faults[1] | faults[2]
    if not bad.any():
        return None
    i, invalid = int(bad.argmax()), "leading-order perturbation theory is invalid at this coupling"
    why = ("non-finite local terms", f"L_AA + L_BB = {l_aa[i] + l_bb[i]:.3g} > 1: {invalid}",
           f"|M| = {abs_m[i]:.3g} > 1/2: {invalid}")
    return i, next(w for f, w in zip(faults, why) if f[i])


def assemble_state(terms: HarvestTerms) -> np.ndarray:
    """The leading-order two-qubit density matrix in the basis
    {gg, eg, ge, ee}; its negativity and concurrence are those of
    ``terms``.  Raises ValueError where no state has them (``_state_fault``)."""
    fault = _state_fault(terms.l_aa, terms.l_bb, abs(terms.m))
    if fault:
        raise ValueError(fault[1])
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 - terms.l_aa - terms.l_bb
    rho[1, 1] = terms.l_aa
    rho[2, 2] = terms.l_bb
    rho[1, 2] = terms.l_ab
    rho[2, 1] = np.conj(terms.l_ab)
    rho[3, 0] = terms.m
    rho[0, 3] = np.conj(terms.m)
    return rho


def positivity_report(terms: HarvestTerms) -> PositivityReport:
    """Leading-order eigenvalues of the X state and the cross-noise
    inequality L_AA L_BB >= |L_AB|^2, each to ERROR_FACTOR times the
    quadrature error.  E2 vanishes at this order; its -|M|^2 piece, fourth
    order in the coupling (M carries e^2), is reported informationally.
    Scaled values are used so the checks remain meaningful at large gaps."""
    l_aa, l_bb = terms.l_aa_scaled, terms.l_bb_scaled
    l_ab = abs(terms.l_ab_scaled)
    root = math.sqrt((l_aa - l_bb) ** 2 + 4.0 * l_ab ** 2)
    e = terms.quadrature_errors
    tol = ERROR_FACTOR * (e.get("l_aa", 0.0) + e.get("l_bb", 0.0)
                          + 2.0 * e.get("l_ab", 0.0) + e.get("crop_tail", 0.0))
    e1 = 1.0 - math.exp(terms.log_scale) * (l_aa + l_bb)
    e3 = 0.5 * (l_aa + l_bb + root)
    e4 = 0.5 * (l_aa + l_bb - root)
    cross = l_aa * l_bb - l_ab ** 2
    cross_tol = ERROR_FACTOR * (e.get("l_aa", 0.0) * l_bb + e.get("l_bb", 0.0) * l_aa
                                + 2.0 * e.get("l_ab", 0.0) * l_ab
                                + e.get("crop_tail", 0.0) * (l_aa + l_bb + l_ab))
    passed = bool(l_aa >= -tol and l_bb >= -tol and e3 >= -tol and e4 >= -tol
                  and cross >= -cross_tol)
    return PositivityReport(
        e1=e1, e2_fourth_order=-abs(terms.m) ** 2,
        e3=e3, e4=e4, cross_inequality=cross,
        tolerance=max(tol, cross_tol), passed=passed)

