"""Harvesting engine: the momentum integrals of the three coupling models,
the closed-form Gaussian time kernels, the two-qubit X-state with its
negativity and concurrence, and the positivity diagnostics.

Every matrix element is one term, prefactor * int_0^inf dk k^p kern(kd)
time(k) / (4u+9)^6 with u = (a0 k)^2, and one engine evaluates each term
from its description (p, kern, time, wings, prefactor):

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
double time integral ``time_integral_closed``.  Like every time factor K is
evaluated once per batch of quadrature nodes; its erfc wings decay only
algebraically in k, so M integrates them to the rational cutoff or sums them
over the spatial period.  The derivative coupling differs from the scalar
one by exactly k^2 in every integrand.  S stays out of the integrals as a
log scale, so the sign of |M| - L (the harvesting criterion) is available
even where the values underflow (Omega T > ~38).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .atoms import AtomSpec, SwitchingKind
from .specfun import (DampedKernelSpec, QuadratureResult, integrate_damped,
                      scaled_time_kernel, spherical_bessel_j,
                      spherical_bessel_j0_plus_j2)

__all__ = [
    "ModelKind",
    "DetectorPair",
    "HarvestTerms",
    "TwoQubitState",
    "PositivityReport",
    "EmDecomposition",
    "local_term",
    "nonlocal_term",
    "cross_noise_term",
    "time_integral_closed",
    "compute_terms",
    "assemble_state",
    "negativity_leading",
    "positivity_report",
    "em_decomposition_identity",
    "local_integrand",
    "nonlocal_integrand",
]

# prefactors of the closed-form kernels (perturbed by the self-check
# mutation hook; do not inline)
EM_LOCAL_COEFF = 49152.0
EM_NONLOCAL_COEFF = 24576.0
SCALAR_LOCAL_COEFF = 32768.0
SCALAR_NONLOCAL_COEFF = 16384.0
EM_DECOMP_IDENTITY_COEFF = 663552.0
EM_DECOMP_DYADIC_COEFF = 24576.0
EM_DECOMP_M_J2_COEFF = 2359296.0


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
    # j_0 and its magnitude: below x = 5 the sizes of its Maclaurin terms add
    # up to sinh x / x; above it sin x / x cancels nothing
    j0, s = spherical_bessel_j(0, x), np.clip(x, 1e-300, 5.0)
    return j0, np.where(x < 5.0, np.sinh(s) / s, np.abs(j0))


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
        if not a.orientation.is_identity:
            raise ValueError("atom A defines the reference frame; its "
                             "orientation must be the identity")
        if not (self.coupling > 0):
            raise ValueError("coupling must be positive")
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
        return (self.atom_a.omega == self.atom_b.omega
                and self.atom_a.a0 == self.atom_b.a0
                and self.atom_a.switching_width == self.atom_b.switching_width)


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

    def harvestable(self, error_factor: float = 10.0) -> bool:
        return bool(self.negativity2_scaled > error_factor * self.negativity2_error_scaled())


@dataclass(frozen=True)
class TwoQubitState:
    rho: np.ndarray
    negativity2: float
    negativity: float
    concurrence: float


@dataclass(frozen=True)
class PositivityReport:
    e1: float
    e2_fourth_order: float  # informational: -|M|^2 appears only at O(e^4)
    e3: float
    e4: float
    cross_inequality: float  # L_AA L_BB - |L_AB|^2, must be >= -tolerance
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class EmDecomposition:
    """Appendix-level split of the EM kernels into identity and k(x)k parts.

    The l_* fields are the numerator polynomials in u = (a0 k)^2 over the
    common denominator (4u+9)^8; the m_* fields carry the spatial Bessel
    kernels as well and reduce to 49152 (4u+9)^2 (j0+j2)(kd)."""

    u: float
    l_identity: float
    l_dyadic: float
    l_total: float
    m_identity: float | None = None
    m_dyadic: float | None = None
    m_total: float | None = None


# ----------------------------------------------------------------------------
# The term engine
# ----------------------------------------------------------------------------

# where k^p / (4 a0^2 k^2 + 9)^6 has rolled off by ~1e-13 of its peak, in
# units of 1/(2 a0): the cutoff of the algebraic erfc wings
_WING_CUTOFF = {3: 120.0, 5: 400.0, 7: 4000.0}


@dataclass(frozen=True)
class _Term:
    """prefactor * int_0^inf k^p kern(k d) time(k) / (4 (a0 k)^2 + 9)^6 dk"""

    p: int
    kernel: Callable | None    # spatial kernel of k d: None (L), j0 or j0+j2
    time: Callable             # k -> (value, magnitude) time factors, in product order
    wings: bool                # erfc wings decaying algebraically (M)
    # (coeff, q, rel, phase, log_scale): coeff a0^q T^2 rel phase
    # exp(log_scale), coeff with e^2 and sign, log_scale the Gaussian kept
    # out of the integral
    prefactor: tuple
    a0: float
    T: float                   # damping exp(-T^2 k^2 / 2)
    d: float = 0.0
    t_ba: float = 0.0          # time factors oscillate with period 2 pi/|t_ba|
    memo: tuple | None = None  # _local_quadrature key (L)


def _spec(term: _Term) -> DampedKernelSpec:
    """The integrand and quadrature spec of a term.  The kernel and time
    factors are (value, magnitude) pairs; their product's magnitude is
    propagated to first order."""
    p, kernel, time, a0, d = term.p, term.kernel, term.time, term.a0, term.d
    spatial = (2.0 * math.pi / d,) if kernel is not None and d > 0 else ()

    def f(k):
        (value, mag), *rest = ((kernel(k * d),) if spatial else ()) + time(k)
        for v, m in rest:
            value, mag = value * v, mag * np.abs(v) + np.abs(value) * m
        scale = k ** p / (4.0 * (a0 * k) ** 2 + 9.0) ** 6
        return scale * value, scale * mag

    temporal = (2.0 * math.pi / abs(term.t_ba),) if term.t_ba != 0.0 else ()
    return DampedKernelSpec(
        damping_width=0.5 * term.T * term.T,
        oscillation_lengths=spatial + temporal,
        integrand=f,
        algebraic_cutoff=_WING_CUTOFF[p] / (2.0 * a0) if term.wings else None,
        tail_oscillation_length=spatial[0] if term.wings and spatial else None,
    )


@functools.lru_cache(maxsize=256)
def _local_quadrature(model: ModelKind, a0: float, omega: float, T: float,
                      atol: float, rtol: float) -> QuadratureResult:
    # Memoised: a grid at fixed gap and radius shares one L.  Only the bare
    # integral is cached; the prefactor (the mutable coefficients included)
    # is applied outside.
    atom = AtomSpec(a0=a0, omega=omega, switching_width=T)
    return integrate_damped(_spec(_local(model, atom)), atol=atol, rtol=rtol)


def _evaluate(term: _Term, log_scale: float, atol: float,
              rtol: float) -> QuadratureResult:
    """A term's value, error and integral of the magnitude relative to exp(log_scale):
    the one place a prefactor is applied."""
    quad = (_local_quadrature(*term.memo, atol, rtol) if term.memo
            else integrate_damped(_spec(term), atol=atol, rtol=rtol))
    coeff, q, rel, phase, term_scale = term.prefactor
    pref = coeff * term.a0 ** q * term.T * term.T * math.exp(term_scale - log_scale)
    return QuadratureResult(value=pref * rel * phase * quad.value,
                            abs_error_estimate=abs(pref) * abs(rel) * quad.abs_error_estimate,
                            evaluations=quad.evaluations,
                            abs_integral=abs(pref) * quad.abs_integral)


def _log_scale(pair: DetectorPair) -> float:
    # S of identical atoms, shared by all their terms; unequal gaps share
    # none, so their values are absolute
    a = pair.atom_a
    return -0.5 * (a.switching_width * a.omega) ** 2 if pair.identical else 0.0


def _absolute(pair: DetectorPair, term: _Term, atol: float, rtol: float):
    log_scale = _log_scale(pair)
    return math.exp(log_scale) * _evaluate(term, log_scale, atol, rtol).value


def _gaussian(k, T: float, omega: float):
    # exp(-e), e = T^2 (k^2/2 + Omega k), with magnitude exp(-e) (1 + e)
    e = 0.5 * T * T * k * k + T * T * omega * k
    g = np.exp(-e)
    return g, g * (1.0 + e)


def _local(model: ModelKind, atom: AtomSpec, coupling: float = 1.0) -> _Term:
    c_l, _, p, q, _ = _model_params(model)
    T, omega = atom.switching_width, atom.omega

    def time(k):
        return (_gaussian(k, T, omega),)

    return _Term(p, None, time, False, (coupling ** 2 * (c_l / math.pi), q,
                                        1.0, 1.0, -0.5 * (T * omega) ** 2),
                 atom.a0, T, memo=(model, atom.a0, omega, T))


def _nonlocal(pair: DetectorPair) -> _Term:
    # the time kernel at every gap; the k-independent rest of the double time
    # integral, exp(-T^2 Omega^2/2 + i Omega (t_A + t_B)) at the mean gap
    # Omega, goes into the prefactor
    a, b = pair.atom_a, pair.atom_b
    _, c_m, p, q, kernel = _model_params(pair.model)
    T, t_ba, e2 = a.switching_width, pair.t_ba, pair.coupling ** 2
    d_omega, mean = a.omega - b.omega, 0.5 * (a.omega + b.omega)

    def time(k):
        return (scaled_time_kernel(k, t_ba, T, d_omega=d_omega),)

    phase = cmath.exp(1j * mean * (a.switching_center + b.switching_center))
    prefactor = (-e2 * (c_m / math.pi), q, pair.cos_relative_angle, phase,
                 -0.5 * (T * mean) ** 2)
    return _Term(p, kernel, time, True, prefactor, a.a0, T, pair.separation, t_ba)


def _cross(pair: DetectorPair) -> _Term:
    a = pair.atom_a
    c_l, _, p, q, kernel = _model_params(pair.model)
    T, t_ba, omega = a.switching_width, pair.t_ba, a.omega

    def time(k):
        if t_ba == 0.0:
            return (_gaussian(k, T, omega),)
        return (np.exp(-1j * k * t_ba), 1.0 + k * abs(t_ba)), _gaussian(k, T, omega)

    prefactor = (pair.coupling ** 2 * (c_l / math.pi), q, pair.cos_relative_angle,
                 cmath.exp(-1j * omega * t_ba), -0.5 * (T * omega) ** 2)
    return _Term(p, kernel, time, False, prefactor, a.a0, T, pair.separation, t_ba)


# ----------------------------------------------------------------------------
# Public views of the engine
# ----------------------------------------------------------------------------

def local_integrand(model: ModelKind, a0: float, omega: float, T: float):
    """Scaled local-term integrand's value (the closed kernel with exp(T^2
    omega^2/2) factored out); exposed so tests can compare models pointwise."""
    f = _spec(_local(model, AtomSpec(a0=a0, omega=omega, switching_width=T))).integrand
    return lambda k: f(k)[0]


def nonlocal_integrand(pair: DetectorPair):
    """Scaled nonlocal-term integrand's value (the time kernel, with
    exp(T^2 Omega^2/2) at the mean gap Omega factored out); the derivative
    and scalar models differ by exactly k^2 here."""
    f = _spec(_nonlocal(pair)).integrand
    return lambda k: f(k)[0]


def local_term(pair: DetectorPair, which: str = "A",
               atol: float = 1e-16, rtol: float = 1e-10) -> float:
    """Local vacuum-noise term L_mumu for one atom (orientation and
    separation independent); equal to the matching ``compute_terms`` field."""
    atom = pair.atom_a if which.upper() == "A" else pair.atom_b
    return _absolute(pair, _local(pair.model, atom, pair.coupling), atol, rtol).real


def nonlocal_term(pair: DetectorPair, atol: float = 1e-16,
                  rtol: float = 1e-10) -> complex:
    """Nonlocal correlation term M (phase retained; |M| feeds the
    negativity).  One time kernel serves every gap."""
    return _absolute(pair, _nonlocal(pair), atol, rtol)


def cross_noise_term(pair: DetectorPair, atol: float = 1e-16,
                     rtol: float = 1e-10) -> complex:
    """Cross noise term L_AB: same spatial kernel as M, full-plane Gaussian
    time factor with phase exp(i (Omega+k) t_AB).  Identical atoms only."""
    if not pair.identical:
        raise ValueError("cross_noise_term requires identical atoms")
    return _absolute(pair, _cross(pair), atol, rtol)


# ----------------------------------------------------------------------------
# Closed-form Gaussian time integral (general gaps)
# ----------------------------------------------------------------------------

def time_integral_closed(omega_a: float, omega_b: float, k, t_a: float,
                         t_b: float, T: float):
    """Ordered double time integral of the two switching orderings against
    exp(i(Omega_a t1 + Omega_b t2)) exp(-i k (t1 - t2)), Gaussian switchings
    of common width T centered at t_a and t_b:

        pi T^2/2 exp(-T^2 Omega^2/2 + i Omega (t_a + t_b)) kernel(k)

    with Omega = (Omega_a + Omega_b)/2 and kernel the overflow-safe
    ``scaled_time_kernel`` at t_BA = t_b - t_a, d_omega = Omega_a - Omega_b,
    so the result is finite for any T k.  Returns (value, magnitude): a
    scalar k gives (complex, float), an array of k one pair of arrays over
    the nodes.
    """
    kernel, mag = scaled_time_kernel(k, t_b - t_a, T, d_omega=omega_a - omega_b)
    mean = 0.5 * (omega_a + omega_b)
    scale = 0.5 * math.pi * T * T * cmath.exp(-0.5 * (T * mean) ** 2
                                              + 1j * mean * (t_a + t_b))
    return scale * kernel, abs(scale) * mag


# ----------------------------------------------------------------------------
# Terms, state assembly and diagnostics
# ----------------------------------------------------------------------------

def compute_terms(pair: DetectorPair, switching: SwitchingKind | None = None,
                  include_cross: bool = True, atol: float = 1e-16,
                  rtol: float = 1e-10) -> HarvestTerms:
    """Evaluate every density-matrix element for the pair.

    L_AB is computed for identical atoms only; other pairs need
    ``include_cross=False``.  Cropped switching evaluates the same closed
    forms and accounts for the discarded Gaussian tails as an extra error
    bound: with the default 8 sigma crop the tail mass fraction is
    erfc(8/sqrt(2)) ~ 1.3e-15, below the double-precision resolution of the
    integrals themselves.  "auto" switching is resolved from the pair's
    separation and delay (``SwitchingKind.resolve``); None is uncropped.
    """
    if include_cross and not pair.identical:
        raise ValueError("L_AB requires identical atoms; pass include_cross=False")
    log_scale = _log_scale(pair)
    terms = {"l_aa": _local(pair.model, pair.atom_a, pair.coupling),
             "l_bb": _local(pair.model, pair.atom_b, pair.coupling),
             "m": _nonlocal(pair)}
    if include_cross:
        terms["l_ab"] = _cross(pair)
    res = {}
    for name, term in terms.items():
        res[name] = (res["l_aa"] if name == "l_bb" and pair.identical
                     else _evaluate(term, log_scale, atol, rtol))
    errors = {name: r.abs_error_estimate for name, r in res.items()}
    if switching is not None:
        switching = switching.resolve(pair.separation, pair.t_ba, pair.atom_a.sigma)
        if switching.variant == "cropped_gaussian":
            tail_fraction = 2.0 * math.erfc(switching.crop_sigmas / math.sqrt(2.0))
            errors["crop_tail"] = tail_fraction * (
                0.5 * (res["l_aa"].abs_integral + res["l_bb"].abs_integral)
                + res["m"].abs_integral)

    factor = math.exp(log_scale)
    l_aa_s, l_bb_s, m_s = res["l_aa"].value.real, res["l_bb"].value.real, res["m"].value
    l_ab_s = res["l_ab"].value if include_cross else 0.0 + 0.0j
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


def assemble_state(terms: HarvestTerms) -> TwoQubitState:
    """Build the leading-order two-qubit density matrix in the basis
    {gg, eg, ge, ee} and its entanglement measures."""
    l_aa, l_bb = terms.l_aa, terms.l_bb
    if not (math.isfinite(l_aa) and math.isfinite(l_bb)):
        raise ValueError("non-finite local terms")
    if l_aa + l_bb > 1.0:
        raise ValueError(
            f"L_AA + L_BB = {l_aa + l_bb:.3g} > 1: leading-order perturbation "
            "theory is invalid at this coupling")
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 - l_aa - l_bb
    rho[1, 1] = l_aa
    rho[2, 2] = l_bb
    rho[1, 2] = terms.l_ab
    rho[2, 1] = np.conj(terms.l_ab)
    rho[3, 0] = terms.m
    rho[0, 3] = np.conj(terms.m)
    n2 = negativity_leading(l_aa, l_bb, abs(terms.m))
    neg = max(0.0, n2)
    return TwoQubitState(rho=rho, negativity2=n2, negativity=neg,
                         concurrence=2.0 * neg)


def positivity_report(terms: HarvestTerms, coupling: float = 1.0,
                      error_factor: float = 10.0) -> PositivityReport:
    """Leading-order eigenvalues of the X state and the cross-noise
    inequality L_AA L_BB >= |L_AB|^2.  E2 vanishes at this order (its -|M|^2
    piece is fourth order in the coupling) and is reported informationally.
    Scaled values are used so the checks remain meaningful at large gaps."""
    l_aa, l_bb = terms.l_aa_scaled, terms.l_bb_scaled
    l_ab = abs(terms.l_ab_scaled)
    root = math.sqrt((l_aa - l_bb) ** 2 + 4.0 * l_ab ** 2)
    e = terms.quadrature_errors
    tol = error_factor * (e.get("l_aa", 0.0) + e.get("l_bb", 0.0)
                          + 2.0 * e.get("l_ab", 0.0) + e.get("crop_tail", 0.0))
    e1 = 1.0 - math.exp(terms.log_scale) * (l_aa + l_bb)
    e3 = 0.5 * (l_aa + l_bb + root)
    e4 = 0.5 * (l_aa + l_bb - root)
    cross = l_aa * l_bb - l_ab ** 2
    cross_tol = error_factor * (e.get("l_aa", 0.0) * l_bb + e.get("l_bb", 0.0) * l_aa
                                + 2.0 * e.get("l_ab", 0.0) * l_ab
                                + e.get("crop_tail", 0.0) * (l_aa + l_bb + l_ab))
    passed = bool(l_aa >= -tol and l_bb >= -tol and e3 >= -tol and e4 >= -tol
                  and cross >= -cross_tol)
    return PositivityReport(
        e1=e1, e2_fourth_order=-(coupling ** 2 * abs(terms.m)) ** 2,
        e3=e3, e4=e4, cross_inequality=cross,
        tolerance=max(tol, cross_tol), passed=passed)


def em_decomposition_identity(k: float, a0: float,
                              d: float | None = None) -> EmDecomposition:
    """Identity/dyadic decomposition of the EM kernels at one momentum.

    The numerators over (4u+9)^8 satisfy

        663552 (16u^2 - 8u + 9) - 24576 (20u - 9)^2 = 49152 (4u + 9)^2

    and, with the spatial Bessel factors at separation d, the same
    subtraction reproduces the 49152 (4u+9)^2 (j0 + j2)(kd) kernel of the
    nonlocal term.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    u = (a0 * k) ** 2
    l_id = EM_DECOMP_IDENTITY_COEFF * (16.0 * u * u - 8.0 * u + 9.0)
    l_dy = EM_DECOMP_DYADIC_COEFF * (20.0 * u - 9.0) ** 2
    l_tot = l_id - l_dy
    if d is None:
        return EmDecomposition(u=u, l_identity=l_id, l_dyadic=l_dy, l_total=l_tot)
    x = k * d
    j0 = spherical_bessel_j(0, x)
    j2 = spherical_bessel_j(2, x)
    m_id = j0 * l_id - j2 * EM_DECOMP_M_J2_COEFF * u * (8.0 * u - 9.0)
    m_dy = l_dy * (j0 - 2.0 * j2)
    return EmDecomposition(u=u, l_identity=l_id, l_dyadic=l_dy, l_total=l_tot,
                           m_identity=m_id, m_dyadic=m_dy, m_total=m_id - m_dy)
