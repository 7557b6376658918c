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
Omega_A - Omega_B.  In M, Omega is the mean gap (Omega_A + Omega_B)/2, so one
row serves every gap: pi T^2/2 S e^{i Omega (t_A+t_B)} K is the ordered
double time integral ``oracle.time_integral_closed``.  Like every time factor K is
evaluated once per batch of quadrature nodes; its erfc wings decay only
algebraically in k, so M integrates them to the rational cutoff or sums them
over the spatial period.  A term stops instead at the live edge, where its
Gaussian part is e^-60 below its peak, if a rigorous bound B on the rest of
its integral of |f| (``_live_edge``) is at most 1e-3 of its roundoff floor:
the wings carry e^{-t_BA^2/(2 T^2)}, so M does at large |t_BA|, and L and
L_AB, which have no wings, almost always do.  B is then part of its
reported error.  The derivative coupling differs from the scalar
one by exactly k^2 in every integrand.  S at the mean gap stays out of the
integrals as a log scale, so the sign of |M| - L (the harvesting criterion)
is available even where the values underflow (Omega T > ~38); a pair whose
terms relative to it leave double range (very unequal gaps) raises
ValueError.

``compute_terms_many`` evaluates a batch of pairs and shares the work: the
M and L_AB terms with the same scale k^p / (4u+9)^6 and kern (and the L
terms with the same scale) integrate on one head panel set, each distinct
(time, d) once, to its own tolerance and with its own tail (none for L and
L_AB), and each pass evaluates each distinct time(k) and kern(kd) once.
``compute_terms`` is its one-pair case.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .atoms import AtomSpec, SwitchingKind
from .specfun import (_GAUSS_DEAD, _ROUNDOFF, _SEED_DEPTH, DampedKernelSpec,
                      QuadratureConvergenceError, QuadratureResult, _integrands,
                      integrate_damped_group, scaled_time_kernel, spherical_bessel_j,
                      spherical_bessel_j0_plus_j2)

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
    "local_integrand",
    "nonlocal_integrand",
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

    @classmethod
    def from_name(cls, name: str) -> "ModelKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown model {name!r} (choose from "
                         f"{[k.value for k in cls]})")


def _j0(x):
    # j_0 = sin x / x and its magnitude: below x = 5 the sizes of its
    # Maclaurin terms, sinh x / x (evaluated there alone); above it |j_0|
    j0 = spherical_bessel_j(0, x)
    mag, small = np.abs(j0), x < 5.0
    if small.any():
        s = np.maximum(x[small], 1e-300)
        mag[small] = np.sinh(s) / s
    return j0, mag


def _model_params(model: ModelKind):
    # (C_L, C_M, p, q, kern), read at call time
    if model is ModelKind.EM_DIPOLE:
        return EM_LOCAL_COEFF, EM_NONLOCAL_COEFF, 3, 2, spherical_bessel_j0_plus_j2
    if model is ModelKind.UDW_SCALAR:
        return SCALAR_LOCAL_COEFF, SCALAR_NONLOCAL_COEFF, 5, 4, _j0
    return SCALAR_LOCAL_COEFF, SCALAR_NONLOCAL_COEFF, 7, 4, _j0


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
        # not computed correctly yet, so rejected: M uses atom A's a0 and T
        # for both atoms, and the EM kernel assumes B on A's 2p_z axis
        if a.a0 != b.a0 or a.switching_width != b.switching_width:
            raise ValueError("atoms with unequal a0 or unequal switching "
                             "widths are not supported")
        dx = np.subtract(b.position, a.position)
        if self.model is ModelKind.EM_DIPOLE and (dx[0] or dx[1]):
            raise ValueError("EM dipole pairs need atom B on atom A's z axis")

    @property
    def separation(self) -> float:
        dx = np.asarray(self.atom_b.position) - np.asarray(self.atom_a.position)
        return float(np.linalg.norm(dx))

    @property
    def t_ba(self) -> float:
        return self.atom_b.switching_center - self.atom_a.switching_center

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
        e = self.quadrature_errors
        return (e.get("m", 0.0) + 0.5 * (e.get("l_aa", 0.0) + e.get("l_bb", 0.0))
                + e.get("crop_tail", 0.0))

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

# past the live edge every member's Gaussian part is e^-_LIVE_EXPONENT below its peak
_LIVE_EXPONENT = 60.0
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class _Term:
    """prefactor * int_0^inf k^p kern(k d) time(k) / (4 (a0 k)^2 + 9)^6 dk"""

    # ("L" or "M", p, a0, T), T that of the damping exp(-T^2 k^2 / 2): terms
    # of one share (L; M with L_AB) have the same p, kernel, a0 and T and
    # integrate on one panel set, one member per distinct (clock, d)
    share: tuple
    # (kind, t_BA, frequency): ("L", 0, Omega), ("M", t_BA, Omega_A - Omega_B)
    # or ("L_AB", t_BA, Omega), which fixes time(k) (``_time``)
    clock: tuple
    d: float
    # (coeff, q, rel, phase, log_scale): coeff a0^q T^2 rel phase
    # exp(log_scale), coeff with e^2 and sign, log_scale the Gaussian kept
    # out of the integral
    prefactor: tuple
    kernel: Callable | None = None  # spatial kernel of k d: None (L), j0 or j0+j2


def _gaussian(k, T: float, omega: float):
    # exp(-e), e = T^2 (k^2/2 + Omega k), with magnitude exp(-e) (1 + e)
    e = 0.5 * T * T * k * k + T * T * omega * k
    g = np.exp(-e)
    return g, g * (1.0 + e)


def _time(clock: tuple, T: float, k):
    """The (value, magnitude) time factors of a clock at the nodes k, in
    product order: the time kernel for M, whose erfc wings decay only
    algebraically, and e^{-ik t_BA} G(k) for L_AB and L (t_BA = 0); each
    oscillates with period 2 pi/|t_BA|."""
    kind, t_ba, omega = clock
    if kind == "M":
        return (scaled_time_kernel(k, t_ba, T, d_omega=omega),)
    if t_ba == 0.0:
        return (_gaussian(k, T, omega),)
    return (np.exp(-1j * k * t_ba), 1.0 + k * abs(t_ba)), _gaussian(k, T, omega)


def _scale(p: int, a0: float):
    # k -> k^p / (4u+9)^6, the last factor of every integrand
    return lambda k: k ** p / (4.0 * (a0 * k) ** 2 + 9.0) ** 6


def _log_upper_gamma(n: int, x: float) -> float:
    # log Gamma(n, x) = log((n-1)! e^-x sum_{j<n} x^j/j!) for integer n and x >= 1
    return (math.lgamma(n) - x + (n - 1) * math.log(x)
            + math.log(sum(x ** (j - n + 1) / math.factorial(j) for j in range(n))))


def _live_edge(members) -> tuple[float, tuple]:
    """The live edge k_live of a group of terms of one key, past which every
    member's Gaussian part, times k^p, is e^-_LIVE_EXPONENT below its peak,
    and per member a rigorous bound B on its integral of |f| over
    [k_live, inf), in the units of its bare integral (a member whose B is
    far below its roundoff floor stops at k_live).  With b = T k/sqrt2 and
    c = T (Omega_A - Omega_B)/(2 sqrt2), M's Gaussian part is 2 e^{-(b+c)^2},
    so k_live = (sqrt(_LIVE_EXPONENT) + max|c|) sqrt2/T.  B bounds |kern| by
    1 and the rational by 9^-6 times:
    - the Gaussian part: with y = b - |c| >= y0 past the edge,
      (y + |c|)^p <= (y y_live/y0)^p, and the integral of y^p e^{-y^2} is
      the upper incomplete gamma Gamma((p+1)/2, y0^2)/2; L and L_AB, whose
      G(k) <= e^{-b^2} since Omega > 0, have this part alone, of weight 1;
    - M's wings: |w(z)| <= min(1, 1/(sqrt(pi) Im z)) at Im z = a (A&S
      7.1.3), |kern| <= 1 and the whole rational integral,
      int_0^inf k^p (4 a0^2 k^2 + 9)^-6 dk
      = (3/(2 a0))^{p+1} 9^-6 B((p+1)/2, 6 - (p+1)/2)/2.
    All in logs: where B leaves double range it is inf, and the member
    runs on.  p is odd, so (p+1)/2 is an integer.  Where every B exceeds
    50 eps 9^-6 k_live^{p+1}/(p+1), 1e3x the floor of a member whose time
    and spatial factors had magnitude 1, no member would stop: the group
    gets no edge, (inf, ()), and its first pass takes all the seeds."""
    _, p, a0, T = members[0].share
    n = (p + 1) // 2
    cs = [abs(T * t.clock[2]) / (2.0 * _SQRT2) if t.clock[0] == "M" else 0.0 for t in members]
    root, c_max = math.sqrt(_LIVE_EXPONENT), max(cs)
    y_live = root + c_max
    log_sqrt_w = math.log(T) - 0.5 * math.log(2.0)
    log_9_6 = 6.0 * math.log(9.0)
    log_rational = ((p + 1) * (math.log(1.5) - math.log(a0)) - log_9_6 - math.log(2.0)
                    + math.lgamma(n) + math.lgamma(6 - n) - math.lgamma(6))
    k_live, log_bounds = y_live * _SQRT2 / T, []
    for t, c in zip(members, cs):
        y0 = root + (c_max - c)
        winged = t.clock[0] == "M"
        log_b = (math.log(2.0 if winged else 1.0) - log_9_6 + p * math.log(y_live / y0)
                 + _log_upper_gamma(n, y0 * y0) - math.log(2.0) - (p + 1) * log_sqrt_w)
        if winged:
            a = abs(t.clock[1]) / (_SQRT2 * T)
            log_w = min(0.0, -math.log(math.sqrt(math.pi) * a)) if a > 0.0 else 0.0
            wings = math.log(2.0) - a * a + log_w + log_rational
            log_b = max(log_b, wings) + math.log1p(math.exp(-abs(log_b - wings)))
        log_bounds.append(log_b)
    screen = math.log(_ROUNDOFF) - log_9_6 + (p + 1) * math.log(k_live) - math.log(p + 1)
    if not any(b <= screen for b in log_bounds):
        return math.inf, ()
    return k_live, tuple(math.exp(b) if b < _LOG_HUGE else math.inf for b in log_bounds)


def _spec(term: _Term, members=None) -> DampedKernelSpec:
    """The quadrature spec of a term, or of the group of terms that share
    its key (p, a0, T and with p the kernel): one member (time, d, cutoff)
    per term in members (default: the term), with one time object per clock
    (``_time``) and the wing cutoff for M, and the group's live edge with
    each member's bound past it (``_live_edge``).
    Its integrand is the scale k^p / (4u+9)^6, the last factor of every one."""
    _, p, a0, T = term.share
    members = (term,) if members is None else members
    times = {c: functools.partial(_time, c, T) for c in dict.fromkeys(t.clock for t in members)}
    k_live, bounds = _live_edge(members)
    return DampedKernelSpec(
        damping_width=0.5 * T * T,
        oscillation_lengths=tuple(2.0 * math.pi / abs(c[1]) for c in times if c[1] != 0.0),
        integrand=_scale(p, a0),
        kernel=term.kernel,
        members=tuple((times[t.clock], t.d,
                       _WING_CUTOFF[p] / (2.0 * a0) if t.clock[0] == "M" else None)
                      for t in members),
        live_edge=k_live,
        edge_bounds=bounds,
    )


def _integrand(term: _Term):
    # k -> (value, magnitude) of the term's whole integrand
    _, p, a0, T = term.share
    members = [(functools.partial(_time, term.clock, T), term.d)]
    return lambda k: next(_integrands(_scale(p, a0), k, term.kernel, members))[1]


def _quadratures(terms: list, atol: float, rtol: float) -> list:
    """The bare integral of each term.  The terms are grouped by key, and
    each group is one integrate_damped_group call with one member per
    distinct (clock, d), so terms that differ only in the prefactor share
    one integral.  An entry is a QuadratureResult, or the
    QuadratureConvergenceError of a term that missed the tolerance.  Raises
    ValueError unless atol and rtol are finite and >= 0."""
    for name, tol in (("atol", atol), ("rtol", rtol)):
        if not 0.0 <= tol < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, not {tol!r}")
    out = [None] * len(terms)
    groups = {}
    for i, term in enumerate(terms):
        groups.setdefault(term.share, {}).setdefault((term.clock, term.d), []).append(i)
    for members in groups.values():
        firsts = [terms[idx[0]] for idx in members.values()]
        spec = _spec(firsts[0], firsts)
        for idx, quad in zip(members.values(), integrate_damped_group(spec, atol=atol, rtol=rtol)):
            for i in idx:
                out[i] = quad
    return out


def _evaluate(term: _Term, quad: QuadratureResult, log_scale: float) -> QuadratureResult:
    """A term's value, error and integral of the magnitude relative to
    exp(log_scale) from its bare integral: the one place a prefactor is
    applied.  Raises ValueError where that value leaves the range of normal
    doubles."""
    coeff, q, rel, phase, term_scale = term.prefactor
    _, _, a0, T = term.share
    shift = term_scale - log_scale
    log_size = shift + q * math.log(a0) + 2.0 * math.log(T) + sum(
        math.log(abs(x)) if x else -math.inf for x in (coeff, quad.value))
    if not (_LOG_TINY < log_size < _LOG_HUGE and shift < _LOG_HUGE):
        raise ValueError(f"a term is exp({log_size:.6g}) times exp(log_scale) "
                         f"= exp({log_scale:.6g}): outside double range")
    pref = coeff * a0 ** q * T * T * math.exp(shift)
    return QuadratureResult(value=pref * rel * phase * quad.value,
                            abs_error_estimate=abs(pref) * abs(rel) * quad.abs_error_estimate,
                            evaluations=quad.evaluations,
                            abs_integral=abs(pref) * quad.abs_integral)


def _mean_gap_factor(omega_a: float, omega_b: float, t_a: float, t_b: float,
                     T: float) -> tuple[float, complex]:
    """M's k-independent time factor exp(-T^2 Omega^2/2 + i Omega (t_A + t_B))
    at the mean gap Omega = (Omega_A + Omega_B)/2, as (log modulus, phase)."""
    mean = 0.5 * (omega_a + omega_b)
    return -0.5 * (T * mean) ** 2, cmath.exp(1j * mean * (t_a + t_b))


def _table(pair: DetectorPair, include_cross: bool) -> dict:
    """The pair's terms by field.  M's prefactor carries S at the mean gap,
    the log scale of them all (L_mumu as exp(T^2 (Omega^2 - Omega_mu^2)/2)
    times it).  Raises ValueError for an a0 whose scale k^p / (4u+9)^6 the
    quadrature cannot follow: its knee at k = 3/(2 a0) must lie above the
    head's lowest seed, and k^p finite out to the last node of a term, the
    wing cutoff or the Gaussian's dead point k_hi."""
    a, b = pair.atom_a, pair.atom_b
    c_l, c_m, p, q, kernel = _model_params(pair.model)
    a0, T, t_ba, e2 = a.a0, a.switching_width, pair.t_ba, pair.coupling ** 2
    k_hi = math.sqrt(2.0 * _GAUSS_DEAD) / T
    a0_min = 0.5 * _WING_CUTOFF[p] * math.exp(-_LOG_HUGE / p)
    a0_max = 1.5 / (_SEED_DEPTH * k_hi)
    if not (a0_min < a0 <= a0_max and p * math.log(k_hi) < _LOG_HUGE):
        raise ValueError(f"a0 = {a0:.6g} at T = {T:.6g} is outside the range of the "
                         f"momentum integrals, {a0_min:.3g} < a0 <= {a0_max:.6g}")
    local, rel = (e2 * (c_l / math.pi), q), pair.cos_relative_angle
    terms = {name: _Term(("L", p, a0, T), ("L", 0.0, atom.omega), 0.0,
                         (*local, 1.0, 1.0, -0.5 * (T * atom.omega) ** 2))
             for name, atom in (("l_aa", a), ("l_bb", b))}
    # M: the time kernel at every gap; the k-independent rest of the double
    # time integral, _mean_gap_factor, goes into the prefactor
    log_scale, phase = _mean_gap_factor(a.omega, b.omega, a.switching_center,
                                        b.switching_center, T)
    terms["m"] = _Term(("M", p, a0, T), ("M", t_ba, a.omega - b.omega), pair.separation,
                       (-e2 * (c_m / math.pi), q, rel, phase, log_scale), kernel)
    if include_cross:
        terms["l_ab"] = _Term(("M", p, a0, T), ("L_AB", t_ba, a.omega), pair.separation,
                              (*local, rel, cmath.exp(-1j * a.omega * t_ba),
                               -0.5 * (T * a.omega) ** 2), kernel)
    return terms


def _field(pair: DetectorPair, name: str, atol: float = 1e-16,
           rtol: float = 1e-10) -> tuple[complex, QuadratureResult]:
    """A field of ``compute_terms(pair)`` and its result relative to
    exp(log_scale): the term integrated with exactly those of the pair's
    terms that share its key (L_AA with L_BB, M with L_AB for identical
    atoms)."""
    table = _table(pair, pair.identical)
    names = [n for n, t in table.items() if t.share == table[name].share]
    quad = _quadratures([table[n] for n in names], atol, rtol)[names.index(name)]
    if isinstance(quad, QuadratureConvergenceError):
        raise quad
    log_scale = table["m"].prefactor[4]
    res = _evaluate(table[name], quad, log_scale)
    return math.exp(log_scale) * res.value, res


# ----------------------------------------------------------------------------
# Public views of the engine
# ----------------------------------------------------------------------------

def local_integrand(model: ModelKind, a0: float, omega: float, T: float):
    """Scaled local-term integrand's value (the closed kernel with exp(T^2
    omega^2/2) factored out); exposed so tests can compare models pointwise."""
    atom = AtomSpec(a0=a0, omega=omega, switching_width=T)
    f = _integrand(_table(DetectorPair(atom, atom, model), False)["l_aa"])
    return lambda k: f(k)[0]


def nonlocal_integrand(pair: DetectorPair):
    """Scaled nonlocal-term integrand's value (the time kernel, with
    exp(T^2 Omega^2/2) at the mean gap Omega factored out); the derivative
    and scalar models differ by exactly k^2 here."""
    f = _integrand(_table(pair, False)["m"])
    return lambda k: f(k)[0]


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
    negativity).  One time kernel serves every gap.  Identical atoms
    integrate it with L_AB, so it equals ``compute_terms(pair).m``; other
    pairs alone, as ``compute_terms(pair, include_cross=False)`` does."""
    return _field(pair, "m", atol, rtol)[0]


def cross_noise_term(pair: DetectorPair, atol: float = 1e-16,
                     rtol: float = 1e-10) -> complex:
    """Cross noise term L_AB: same spatial kernel as M, full-plane Gaussian
    time factor with phase exp(i (Omega+k) t_AB).  Identical atoms only;
    integrated with M, so it equals ``compute_terms(pair).l_ab``."""
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
    ``include_cross=False``.  L_AB is integrated with M, so for identical
    atoms ``include_cross=False`` may give an M that differs from the
    default's by less than the reported error.  Cropped switching does not
    integrate a cropped window: it evaluates the same Gaussian closed forms
    and adds the error bound "crop_tail", 2 erfc(crop_sigmas/sqrt(2)) times
    the terms' scaled integrals of |f|.  That bound is known to understate
    what the crop leaks at large Omega T, by ~21 orders of magnitude for L
    at fig5b's parameters.  "auto" switching is resolved from the pair's
    separation and delay (``SwitchingKind.resolve``); the default is the
    uncropped Gaussian.
    Raises QuadratureConvergenceError where a term misses the tolerance, and
    ValueError where a term relative to exp(log_scale) leaves double range
    or a0 leaves the range the momentum integrals follow (``_table``).
    """
    (terms,) = compute_terms_many([pair], switching, include_cross, atol, rtol)
    if isinstance(terms, QuadratureConvergenceError):
        raise terms
    return terms


def compute_terms_many(pairs, switching: SwitchingKind = SwitchingKind(),
                       include_cross: bool = True, atol: float = 1e-16,
                       rtol: float = 1e-10) -> list:
    """``compute_terms`` of every pair, sharing the momentum integrals.

    The M terms of pairs with the same model, a0 and T are integrated on
    one head panel set (``specfun.integrate_damped_group``), each distinct
    (t_BA, Omega_A - Omega_B, d) once: a pass evaluates the time kernel
    once per (t_BA, Omega_A - Omega_B) and the spatial kernel once per d,
    so a spacetime map (fig5a, fig5b) is one group.  Each L_AB joins that
    group as one more member per distinct (t_BA, Omega, d), which shares
    the spatial kernel with M's member at its d.  The L of every atom with
    the same model, a0 and T is one more group, one member per distinct
    Omega, so an unequal-gap pair makes two group calls, as an identical
    one does.  A pair alone gives the same bits as in a group of one; in a
    larger group its values may differ from that by less than the reported
    errors.

    Returns one entry per pair: its HarvestTerms, or the
    QuadratureConvergenceError of its first term that missed the tolerance,
    which leaves the other pairs as they are.  Raises ValueError as
    ``compute_terms`` does.
    """
    pairs = list(pairs)
    if include_cross and not all(pair.identical for pair in pairs):
        raise ValueError("L_AB requires identical atoms; pass include_cross=False")
    per_pair = [_table(pair, include_cross) for pair in pairs]
    quads = iter(_quadratures([t for terms in per_pair for t in terms.values()],
                              atol, rtol))
    out = []
    for pair, terms in zip(pairs, per_pair):
        quad = {name: next(quads) for name in terms}
        failed = [q for q in quad.values() if isinstance(q, QuadratureConvergenceError)]
        out.append(failed[0] if failed else _harvest_terms(pair, terms, quad, switching))
    return out


def _harvest_terms(pair: DetectorPair, terms: dict, quad: dict,
                   switching: SwitchingKind) -> HarvestTerms:
    log_scale = terms["m"].prefactor[4]
    res = {name: _evaluate(term, quad[name], log_scale) for name, term in terms.items()}
    errors = {name: r.abs_error_estimate for name, r in res.items()}
    switching = switching.resolve(pair.separation, pair.t_ba, pair.atom_a.sigma)
    if switching.variant == "cropped_gaussian":
        tail_fraction = 2.0 * math.erfc(switching.crop_sigmas / math.sqrt(2.0))
        errors["crop_tail"] = tail_fraction * (
            0.5 * (res["l_aa"].abs_integral + res["l_bb"].abs_integral)
            + res["m"].abs_integral)

    factor = math.exp(log_scale)
    l_aa_s, l_bb_s, m_s = res["l_aa"].value.real, res["l_bb"].value.real, res["m"].value
    l_ab_s = res["l_ab"].value if "l_ab" in res else 0.0 + 0.0j
    return HarvestTerms(
        l_aa=factor * l_aa_s, l_bb=factor * l_bb_s,
        l_ab=factor * l_ab_s, m=factor * m_s,
        quadrature_errors=errors, log_scale=log_scale,
        l_aa_scaled=l_aa_s, l_bb_scaled=l_bb_s,
        l_ab_scaled=l_ab_s, m_scaled=m_s,
    )


def negativity_leading(l_aa: float, l_bb: float, abs_m: float) -> float:
    """Leading-order negativity N^(2) of the X state; N = max(0, N^(2))."""
    return -0.5 * (l_aa + l_bb
                   - math.sqrt((l_aa - l_bb) ** 2 + 4.0 * abs_m ** 2))


def _state_fault(terms: HarvestTerms) -> str | None:
    """Why no density matrix has these terms, or None: non-finite local terms,
    L_AA + L_BB > 1, or |M| > 1/2 (off the diagonal |rho_ij| <= 1/2)."""
    l_aa, l_bb, abs_m = terms.l_aa, terms.l_bb, abs(terms.m)
    if not (math.isfinite(l_aa) and math.isfinite(l_bb)):
        return "non-finite local terms"
    if l_aa + l_bb > 1.0:
        return (f"L_AA + L_BB = {l_aa + l_bb:.3g} > 1: leading-order perturbation "
                "theory is invalid at this coupling")
    if not abs_m <= 0.5:
        return (f"|M| = {abs_m:.3g} > 1/2: leading-order perturbation theory is "
                "invalid at this coupling")
    return None


def assemble_state(terms: HarvestTerms) -> np.ndarray:
    """The leading-order two-qubit density matrix in the basis
    {gg, eg, ge, ee}; its negativity and concurrence are those of
    ``terms``.  Raises ValueError where no state has them (``_state_fault``)."""
    fault = _state_fault(terms)
    if fault:
        raise ValueError(fault)
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

