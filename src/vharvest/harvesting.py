"""Harvesting engine: per-model local and nonlocal momentum integrals, the
closed-form Gaussian time kernels, the two-qubit X-state with its negativity
and concurrence, and the positivity diagnostics.

Momentum integrands (k in units of inverse length, u = (a0 k)^2):

    local      L    = e^2 (C_L/pi) a0^q T^2 * int k^p exp(-T^2(Omega+k)^2/2) / (4u+9)^6
    nonlocal   M    = -e^2 (C_M/pi) rel a0^q T^2 e^{i Omega (t_A+t_B)}
                      * int k^p kern(kd) exp(-T^2(Omega^2+k^2)/2) [E(k,t_BA)+E(k,-t_BA)] / (4u+9)^6
    cross      L_AB = e^2 (C_L/pi) rel a0^q T^2 e^{-i Omega t_BA}
                      * int k^p kern(kd) exp(-T^2(Omega+k)^2/2) e^{-i k t_BA} / (4u+9)^6

with (C_L, C_M, p, q, kern, rel) =
    EM dipole:   (49152, 24576, 3, 2, j0+j2, cos(theta))
    UdW scalar:  (32768, 16384, 5, 4, j0,    1)
    derivative:  (32768, 16384, 7, 4, j0,    1)

The derivative coupling differs from the scalar one by exactly k^2 in every
integrand.  All integrals are evaluated with the Gaussian factor
exp(-T^2 Omega^2 / 2) pulled out analytically, so the sign of |M| - L (the
harvesting criterion) is available even where the values themselves
underflow (Omega T > ~38).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import wofz as _wofz

from .atoms import AtomSpec, SwitchingKind, TransitionSpec
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

    @property
    def transition(self) -> TransitionSpec:
        if self is ModelKind.EM_DIPOLE:
            return TransitionSpec.em_dipole()
        return TransitionSpec.scalar()


def _model_params(model: ModelKind):
    if model is ModelKind.EM_DIPOLE:
        return EM_LOCAL_COEFF, EM_NONLOCAL_COEFF, 3, 2
    if model is ModelKind.UDW_SCALAR:
        return SCALAR_LOCAL_COEFF, SCALAR_NONLOCAL_COEFF, 5, 4
    return SCALAR_LOCAL_COEFF, SCALAR_NONLOCAL_COEFF, 7, 4


@dataclass(frozen=True)
class DetectorPair:
    atom_a: AtomSpec
    atom_b: AtomSpec
    model: ModelKind
    coupling: float = 1.0

    def __post_init__(self):
        if not self.atom_a.orientation.is_identity:
            raise ValueError("atom A defines the reference frame; its "
                             "orientation must be the identity")
        if not (self.coupling > 0):
            raise ValueError("coupling must be positive")

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
        return self.negativity2_scaled > error_factor * self.negativity2_error_scaled()


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
# Momentum integrals
# ----------------------------------------------------------------------------

def _rational(u: np.ndarray) -> np.ndarray:
    return (4.0 * u + 9.0) ** 6


def _spatial_kernel(model: ModelKind, x: np.ndarray) -> np.ndarray:
    if model is ModelKind.EM_DIPOLE:
        return spherical_bessel_j0_plus_j2(x)
    return spherical_bessel_j(0, x)


def _wing_cutoff(model: ModelKind, a0: float) -> float:
    # where k^p / (4 a0^2 k^2 + 9)^6 has rolled off by ~1e-13 of its peak
    _, _, p, _ = _model_params(model)
    x = {3: 120.0, 5: 400.0, 7: 4000.0}[p]
    return x / (2.0 * a0)


def local_integrand(model: ModelKind, a0: float, omega: float, T: float):
    """Scaled local-term integrand (the closed kernel with exp(T^2 omega^2/2)
    factored out); exposed so tests can compare models pointwise."""
    _, _, p, _ = _model_params(model)

    def f(k):
        u = (a0 * k) ** 2
        return k ** p * np.exp(-0.5 * T * T * k * k - T * T * omega * k) / _rational(u)

    return f


def nonlocal_integrand(pair: DetectorPair):
    """Scaled nonlocal-term integrand (fused time kernel, zero-gap scaling);
    the derivative and scalar models differ by exactly k^2 here."""
    a = pair.atom_a
    _, _, p, _ = _model_params(pair.model)
    d = pair.separation
    t_ba = pair.t_ba
    T = a.switching_width
    model = pair.model

    def f(k):
        u = (a.a0 * k) ** 2
        kern = _spatial_kernel(model, k * d) if d > 0 else 1.0
        return k ** p * kern * scaled_time_kernel(k, t_ba, T, 0.0) / _rational(u)

    return f


@functools.lru_cache(maxsize=256)
def _local_quadrature(model: ModelKind, a0: float, omega: float, T: float,
                      atol: float, rtol: float) -> QuadratureResult:
    # Memoised: a grid at fixed gap and radius shares one L.  Only the bare
    # integral is cached; every prefactor (the mutable coefficients included)
    # is applied by the callers.
    spec = DampedKernelSpec(damping_width=0.5 * T * T, oscillation_lengths=(),
                            integrand=local_integrand(model, a0, omega, T))
    return integrate_damped(spec, atol=atol, rtol=rtol)


def local_term(pair: DetectorPair, which: str = "A",
               atol: float = 1e-16, rtol: float = 1e-10) -> float:
    """Local vacuum-noise term L_mumu for one atom (orientation and
    separation independent)."""
    atom = pair.atom_a if which.upper() == "A" else pair.atom_b
    c_l, _, _, q = _model_params(pair.model)
    quad = _local_quadrature(pair.model, atom.a0, atom.omega,
                             atom.switching_width, atol, rtol)
    pref = pair.coupling ** 2 * (c_l / math.pi) * atom.a0 ** q \
        * atom.switching_width ** 2
    scale = math.exp(-0.5 * (atom.switching_width * atom.omega) ** 2)
    return pref * scale * quad.value.real


def _nonlocal_quadrature(pair: DetectorPair, atol: float, rtol: float) -> QuadratureResult:
    a = pair.atom_a
    d = pair.separation
    t_ba = pair.t_ba
    lengths = []
    if d > 0:
        lengths.append(2.0 * math.pi / d)
    if t_ba != 0.0:
        lengths.append(2.0 * math.pi / abs(t_ba))
    spec = DampedKernelSpec(
        damping_width=0.5 * a.switching_width ** 2,
        oscillation_lengths=tuple(lengths),
        integrand=nonlocal_integrand(pair),
        algebraic_cutoff=_wing_cutoff(pair.model, a.a0),
        tail_oscillation_length=(2.0 * math.pi / d) if d > 0 else None,
    )
    return integrate_damped(spec, atol=atol, rtol=rtol)


def _nonlocal_general_quadrature(pair: DetectorPair, atol: float,
                                 rtol: float) -> QuadratureResult:
    # unequal gaps: closed double time integral under the k integral
    a, b = pair.atom_a, pair.atom_b
    _, _, p, _ = _model_params(pair.model)
    d = pair.separation
    T = a.switching_width
    model = pair.model

    def f(k):
        karr = np.atleast_1d(np.asarray(k, dtype=float))
        j = np.array([time_integral_closed(a.omega, b.omega, kk,
                                           a.switching_center, b.switching_center, T)
                      for kk in karr])
        u = (a.a0 * karr) ** 2
        kern = _spatial_kernel(model, karr * d) if d > 0 else 1.0
        return karr ** p * kern * j / _rational(u)

    lengths = []
    if d > 0:
        lengths.append(2.0 * math.pi / d)
    if pair.t_ba != 0.0:
        lengths.append(2.0 * math.pi / abs(pair.t_ba))
    spec = DampedKernelSpec(
        damping_width=0.5 * T * T,
        oscillation_lengths=tuple(lengths),
        integrand=f,
        algebraic_cutoff=_wing_cutoff(model, a.a0),
        tail_oscillation_length=(2.0 * math.pi / d) if d > 0 else None,
    )
    return integrate_damped(spec, atol=atol, rtol=rtol)


def nonlocal_term(pair: DetectorPair, atol: float = 1e-16,
                  rtol: float = 1e-10) -> complex:
    """Nonlocal correlation term M (phase retained; |M| feeds the
    negativity).  Identical atoms use the fused scaled kernel; unequal gaps
    route through the general closed time integral."""
    a = pair.atom_a
    _, c_m, _, q = _model_params(pair.model)
    T = a.switching_width
    rel = pair.cos_relative_angle
    e2 = pair.coupling ** 2
    if pair.identical:
        quad = _nonlocal_quadrature(pair, atol, rtol)
        omega = a.omega
        phase = cmath.exp(1j * omega * (a.switching_center + pair.atom_b.switching_center))
        scale = math.exp(-0.5 * (T * omega) ** 2)
        return -e2 * (c_m / math.pi) * rel * a.a0 ** q * T * T * phase * scale * quad.value
    quad = _nonlocal_general_quadrature(pair, atol, rtol)
    return -e2 * (2.0 * c_m / math.pi ** 2) * rel * a.a0 ** q * quad.value


def _cross_quadrature(pair: DetectorPair, atol: float, rtol: float) -> QuadratureResult:
    a = pair.atom_a
    _, _, p, _ = _model_params(pair.model)
    d = pair.separation
    t_ba = pair.t_ba
    T = a.switching_width
    omega = a.omega
    model = pair.model

    def f(k):
        u = (a.a0 * k) ** 2
        kern = _spatial_kernel(model, k * d) if d > 0 else 1.0
        phase = np.exp(-1j * k * t_ba) if t_ba != 0.0 else 1.0
        return (k ** p * kern * phase
                * np.exp(-0.5 * T * T * k * k - T * T * omega * k) / _rational(u))

    lengths = []
    if d > 0:
        lengths.append(2.0 * math.pi / d)
    if t_ba != 0.0:
        lengths.append(2.0 * math.pi / abs(t_ba))
    spec = DampedKernelSpec(damping_width=0.5 * T * T,
                            oscillation_lengths=tuple(lengths), integrand=f)
    return integrate_damped(spec, atol=atol, rtol=rtol)


def cross_noise_term(pair: DetectorPair, atol: float = 1e-16,
                     rtol: float = 1e-10) -> complex:
    """Cross noise term L_AB: same spatial kernel as M, full-plane Gaussian
    time factor with phase exp(i (Omega+k) t_AB).  Identical atoms only."""
    if not pair.identical:
        raise ValueError("cross_noise_term requires identical atoms")
    a = pair.atom_a
    c_l, _, _, q = _model_params(pair.model)
    T = a.switching_width
    quad = _cross_quadrature(pair, atol, rtol)
    phase = cmath.exp(-1j * a.omega * pair.t_ba)
    scale = math.exp(-0.5 * (T * a.omega) ** 2)
    return (pair.coupling ** 2 * (c_l / math.pi) * pair.cos_relative_angle
            * a.a0 ** q * T * T * phase * scale * quad.value)


# ----------------------------------------------------------------------------
# Closed-form Gaussian time integral (general gaps)
# ----------------------------------------------------------------------------

def _exp_erfc(x: complex, z: complex) -> complex:
    """exp(x) * erfc(z) with the exponents combined; safe whenever
    Re(x) <= 0 and Re(x - z^2) <= 0, which the harvesting kernels satisfy."""
    if z.real >= 0.0:
        w = complex(_wofz(1j * z))
        return cmath.exp(x - z * z + cmath.log(w))
    return 2.0 * cmath.exp(x) - _exp_erfc(x, -z)


def time_integral_closed(omega_a: float, omega_b: float, k: float,
                         t_a: float, t_b: float, T: float) -> complex:
    """Ordered double time integral of the two switching orderings against
    exp(i(Omega_a t1 + Omega_b t2)) exp(-i k (t1 - t2)), Gaussian switchings
    of common width T centered at t_a and t_b.

    Exponents are combined before exponentiation; every branch has
    non-positive real exponent, so the result is finite for any T k.
    """
    if T <= 0:
        raise ValueError("switching width T must be positive")
    t_ba = t_b - t_a
    d_om = omega_a - omega_b
    x = 0.25 * (-2.0 * (k * T) ** 2
                + 2.0 * k * (T * T * d_om + 2j * t_ba)
                - (T * omega_a) ** 2 - (T * omega_b) ** 2) \
        + 1j * (t_b * (omega_a + omega_b) - t_ba * omega_a)
    z1 = (2.0 * t_ba + 1j * T * T * (2.0 * k - d_om)) / (2.0 * math.sqrt(2.0) * T)
    z2 = (-2.0 * t_ba + 1j * T * T * (2.0 * k + d_om)) / (2.0 * math.sqrt(2.0) * T)
    x2 = x - k * (T * T * d_om + 2j * t_ba)
    return 0.5 * math.pi * T * T * (_exp_erfc(x, z1) + _exp_erfc(x2, z2))


# ----------------------------------------------------------------------------
# Terms, state assembly and diagnostics
# ----------------------------------------------------------------------------

def compute_terms(pair: DetectorPair, switching: SwitchingKind | None = None,
                  include_cross: bool = True, atol: float = 1e-16,
                  rtol: float = 1e-10) -> HarvestTerms:
    """Evaluate every density-matrix element for the pair.

    Cropped switching evaluates the same closed forms and accounts for the
    discarded Gaussian tails as an extra error bound: with the default 8
    sigma crop the tail mass fraction is erfc(8/sqrt(2)) ~ 1.3e-15, below
    the double-precision resolution of the integrals themselves.
    """
    switching = switching or SwitchingKind()
    a, b = pair.atom_a, pair.atom_b
    c_l, c_m, _, q = _model_params(pair.model)
    T = a.switching_width
    e2 = pair.coupling ** 2
    rel = pair.cos_relative_angle

    quad_a = _local_quadrature(pair.model, a.a0, a.omega, T, atol, rtol)
    pref_l = e2 * (c_l / math.pi) * a.a0 ** q * T * T

    errors: dict[str, float] = {}
    if pair.identical:
        log_scale = -0.5 * (T * a.omega) ** 2
        quad_b = quad_a
        quad_m = _nonlocal_quadrature(pair, atol, rtol)
        quad_x = _cross_quadrature(pair, atol, rtol) if include_cross else None
        phase_m = cmath.exp(1j * a.omega * (a.switching_center + b.switching_center))
        pref_m = e2 * (c_m / math.pi) * a.a0 ** q * T * T
        l_aa_s = pref_l * quad_a.value.real
        l_bb_s = l_aa_s
        m_s = -pref_m * rel * phase_m * quad_m.value
        errors["l_aa"] = pref_l * quad_a.abs_error_estimate
        errors["l_bb"] = errors["l_aa"]
        errors["m"] = pref_m * abs(rel) * quad_m.abs_error_estimate
        if quad_x is not None:
            phase_x = cmath.exp(-1j * a.omega * pair.t_ba)
            l_ab_s = pref_l * rel * phase_x * quad_x.value
            errors["l_ab"] = pref_l * abs(rel) * quad_x.abs_error_estimate
        else:
            l_ab_s = 0.0 + 0.0j
        if switching.variant == "cropped_gaussian":
            tail_fraction = 2.0 * math.erfc(switching.crop_sigmas / math.sqrt(2.0))
            errors["crop_tail"] = tail_fraction * (
                pref_l * quad_a.abs_integral + pref_m * quad_m.abs_integral)
    else:
        log_scale = 0.0
        quad_b = _local_quadrature(pair.model, b.a0, b.omega,
                                   b.switching_width, atol, rtol)
        pref_lb = e2 * (c_l / math.pi) * b.a0 ** q * b.switching_width ** 2
        quad_m = _nonlocal_general_quadrature(pair, atol, rtol)
        pref_m = e2 * (2.0 * c_m / math.pi ** 2) * a.a0 ** q
        l_aa_s = (pref_l * math.exp(-0.5 * (T * a.omega) ** 2)
                  * quad_a.value.real)
        l_bb_s = (pref_lb * math.exp(-0.5 * (b.switching_width * b.omega) ** 2)
                  * quad_b.value.real)
        m_s = -pref_m * rel * quad_m.value
        l_ab_s = 0.0 + 0.0j  # printed reduction assumes identical atoms
        errors["l_aa"] = pref_l * quad_a.abs_error_estimate
        errors["l_bb"] = pref_lb * quad_b.abs_error_estimate
        errors["m"] = pref_m * abs(rel) * quad_m.abs_error_estimate

    factor = math.exp(log_scale)
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
    passed = (l_aa >= -tol and l_bb >= -tol and e3 >= -tol and e4 >= -tol
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
