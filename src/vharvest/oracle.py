"""Independent brute-force validators.

Every closed form in the engine is grounded here against a computation that
shares none of its code path: direct multi-dimensional quadrature for the
time kernels and radial overlaps, sphere quadrature for the harmonic
integrals, explicit 3x3 rotations for the Wigner machinery, series/continued
fractions for the error functions, and a dense eigensolver for the
negativity.  ``run_all`` executes the whole battery and is what the CLI
``selfcheck`` command drives; ``MUTABLE_CONSTANTS`` lists the closed-form
coefficients a mutation run may perturb to prove the battery has teeth.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import wofz as _wofz

from . import atoms, harvesting
from .angular import (EulerAngles, euler_rotation_matrix, gaunt_integral,
                      polarization_completeness, rotate_harmonic, sph_harm_y)
from .atoms import AtomSpec, SwitchingKind
from .harvesting import (DetectorPair, ModelKind, negativity_leading,
                         time_integral_closed)
from .specfun import _adaptive_gk, spherical_bessel_j

__all__ = [
    "OracleReport",
    "time_integral_bruteforce",
    "sphere_quadrature",
    "radial_bruteforce",
    "rotation_bruteforce",
    "negativity_bruteforce",
    "scalar_smearing_fourier_bruteforce",
    "run_all",
    "MUTABLE_CONSTANTS",
    "faddeeva_w",
    "erfc_complex",
    "TransitionSpec",
    "smearing_scalar",
    "smearing_vector",
    "switching",
    "radial_R",
]

# closed-form constants the mutation self-check may perturb
MUTABLE_CONSTANTS = {
    "harvesting.EM_LOCAL_COEFF": (harvesting, "EM_LOCAL_COEFF"),
    "harvesting.EM_NONLOCAL_COEFF": (harvesting, "EM_NONLOCAL_COEFF"),
    "harvesting.SCALAR_LOCAL_COEFF": (harvesting, "SCALAR_LOCAL_COEFF"),
    "harvesting.SCALAR_NONLOCAL_COEFF": (harvesting, "SCALAR_NONLOCAL_COEFF"),
    "harvesting.EM_DECOMP_IDENTITY_COEFF": (harvesting, "EM_DECOMP_IDENTITY_COEFF"),
    "harvesting.EM_DECOMP_DYADIC_COEFF": (harvesting, "EM_DECOMP_DYADIC_COEFF"),
    "harvesting.EM_DECOMP_M_J2_COEFF": (harvesting, "EM_DECOMP_M_J2_COEFF"),
    "atoms.RADIAL_OVERLAP_L0_COEFF": (atoms, "RADIAL_OVERLAP_L0_COEFF"),
    "atoms.RADIAL_OVERLAP_L2_COEFF": (atoms, "RADIAL_OVERLAP_L2_COEFF"),
}


@dataclass(frozen=True)
class OracleReport:
    name: str
    closed_form: float
    brute_force: float
    rel_err: float
    tol: float
    passed: bool
    evaluations: int


# ----------------------------------------------------------------------------
# Reference helpers the battery and the tests use; the engine does not
# ----------------------------------------------------------------------------

def faddeeva_w(z: complex) -> complex:
    """Faddeeva function w(z) = exp(-z^2) erfc(-i z).

    The upper half plane is numerically benign; the lower half plane goes
    through the reflection w(-z) = 2 exp(-z^2) - w(z) and raises once
    exp(-z^2) overflows.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"faddeeva_w requires finite z, got {z}")
    if z.imag >= 0.0:
        return complex(_wofz(z))
    mz2 = -z * z
    if mz2.real > 709.0:  # ln(DBL_MAX), rounded down
        raise OverflowError(f"exp(-z^2) overflows for z={z}")
    return 2.0 * cmath.exp(mz2) - complex(_wofz(-z))


def erfc_complex(z: complex) -> complex:
    """Complementary error function for complex argument:
    erfc(z) = exp(-z^2 + log w(iz)) for Re z >= 0 and the reflection
    erfc(z) = 2 - erfc(-z) otherwise.  Raises OverflowError where the value
    exceeds double range."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"erfc_complex requires finite z, got {z}")
    if z.real < 0.0:
        return 2.0 - erfc_complex(-z)
    return cmath.exp(-z * z + cmath.log(complex(_wofz(1j * z))))


def radial_R(n: int, l: int, r, a0: float):
    """Hydrogenlike radial wavefunction R_nl(r) for (1,0), (2,0), (2,1)."""
    if not (a0 > 0):
        raise ValueError("a0 must be positive")
    rr = np.asarray(r, dtype=float)
    rho = rr / a0
    scale = a0 ** -1.5
    if (n, l) == (1, 0):
        out = 2.0 * scale * np.exp(-rho)
    elif (n, l) == (2, 0):
        out = scale / (2.0 * math.sqrt(2.0)) * (2.0 - rho) * np.exp(-0.5 * rho)
    elif (n, l) == (2, 1):
        out = scale / math.sqrt(24.0) * rho * np.exp(-0.5 * rho)
    else:
        raise ValueError(f"unsupported radial level (n={n}, l={l})")
    if np.isscalar(r) or np.asarray(r).ndim == 0:
        return float(out)
    return out



@dataclass(frozen=True)
class TransitionSpec:
    """Ground/excited level pair as (n, l, m) triples."""

    ground: tuple[int, int, int] = (1, 0, 0)
    excited: tuple[int, int, int] = (2, 1, 0)

    def __post_init__(self):
        if self.ground != (1, 0, 0):
            raise ValueError("only the 1s ground state is supported")
        if self.excited not in ((2, 1, 0), (2, 0, 0)):
            raise ValueError("excited state must be 2p_z or 2s")

    @classmethod
    def em_dipole(cls) -> "TransitionSpec":
        return cls(excited=(2, 1, 0))

    @classmethod
    def scalar(cls) -> "TransitionSpec":
        return cls(excited=(2, 0, 0))

    @property
    def is_dipole_allowed(self) -> bool:
        return abs(self.excited[1] - self.ground[1]) == 1


def smearing_scalar(atom: AtomSpec, x):
    """Scalar smearing F(x) = psi_2s(x) psi_1s(x) of the monopole couplings:
    (4 pi a0^3 sqrt(2))^-1 e^{-3|x|/2a0} (2 - |x|/a0).

    x holds positions along its last axis, shape (..., 3); one position
    gives a float, several give an array of shape x.shape[:-1].
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (3,):
        raise ValueError("x must have shape (..., 3)")
    r = np.sqrt((x * x).sum(axis=-1))
    a0 = atom.a0
    out = np.exp(-1.5 * r / a0) * (2.0 - r / a0) / (4.0 * math.pi * a0 ** 3 * math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def smearing_vector(atom: AtomSpec, x,
                    transition: TransitionSpec | None = None) -> np.ndarray:
    """Spatial smearing vector F(x) = psi_e*(x) x psi_g(x) of the dipole
    coupling, with the atom's 2p_z orbital expressed in the base frame via
    its Euler orientation.

    For the identity orientation this is the closed form
    cos(th)/(4 pi a0^4 sqrt(2)) e^{-3r/2a0} r^2 (sin th cos ph, sin th sin ph, cos th).
    """
    transition = transition or TransitionSpec.em_dipole()
    if not transition.is_dipole_allowed:
        raise ValueError("smearing_vector requires the dipole-allowed 1s->2p transition")
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("x must be a 3-vector")
    r = float(np.linalg.norm(x))
    if r == 0.0:
        return np.zeros(3, dtype=complex)
    theta, phi = math.atan2(math.hypot(x[0], x[1]), x[2]), math.atan2(x[1], x[0])
    n_e, l_e, m_e = atom.orientation, 1, 0
    if n_e.is_identity:
        y_e = sph_harm_y(l_e, m_e, theta, phi)
    else:
        y_e = rotate_harmonic(l_e, m_e, atom.orientation, theta, phi)
    radial = radial_R(2, 1, r, atom.a0) * radial_R(1, 0, r, atom.a0)
    return np.conj(y_e) * radial / math.sqrt(4.0 * math.pi) * x.astype(complex)


def switching(kind: SwitchingKind, t, atom: AtomSpec):
    """Gaussian switching chi(t) = exp(-(t - t0)^2/T^2); the cropped variant
    is identically zero beyond crop_sigmas * T/sqrt(2) from the center."""
    tt = np.asarray(t, dtype=float)
    arg = (tt - atom.switching_center) / atom.switching_width
    out = np.exp(-arg * arg)
    if kind.variant == "cropped_gaussian":
        cut = kind.crop_sigmas * atom.sigma
        out = np.where(np.abs(tt - atom.switching_center) > cut, 0.0, out)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(out)
    return out


# ----------------------------------------------------------------------------
# Ordered double time integral, by nested quadrature
# ----------------------------------------------------------------------------

_GL12_X, _GL12_W = leggauss(12)
_GL8_X, _GL8_W = leggauss(8)


def _ordered_integral(freq_out: float, freq_in: float, chi_out, chi_in,
                      lo: float, hi: float, n_panels: int) -> complex:
    """integral_lo^hi dt1 out(t1) integral_lo^t1 dt2 in(t2) with
    out(t) = chi_out(t) e^{i freq_out t}, in(t) = chi_in(t) e^{i freq_in t},
    on a shared uniform panel grid (inner cumulative + partial panels)."""
    edges = np.linspace(lo, hi, n_panels + 1)
    h = edges[1] - edges[0]

    def inn(t):
        return chi_in(t) * np.exp(1j * freq_in * t)

    def out(t):
        return chi_out(t) * np.exp(1j * freq_out * t)

    mid = 0.5 * (edges[:-1] + edges[1:])
    inner_nodes = mid[:, None] + 0.5 * h * _GL12_X[None, :]
    inner_panel = (inn(inner_nodes) * _GL12_W[None, :]).sum(axis=1) * 0.5 * h
    cumulative = np.concatenate([[0.0 + 0.0j], np.cumsum(inner_panel)])[:-1]

    outer_nodes = inner_nodes  # same grid
    # partial inner integral from the left panel edge to each outer node
    left = edges[:-1][:, None]
    span = outer_nodes - left
    part_nodes = left[:, :, None] + 0.5 * span[:, :, None] * (_GL8_X[None, None, :] + 1.0)
    partial = (inn(part_nodes) * _GL8_W[None, None, :]).sum(axis=2) * 0.5 * span
    g = cumulative[:, None] + partial
    return complex(((out(outer_nodes) * g) * _GL12_W[None, :]).sum() * 0.5 * h)


def time_integral_bruteforce(omega_a: float, omega_b: float, k: float,
                             t_a: float, t_b: float, T: float,
                             chi_a=None, chi_b=None,
                             rel_tol: float = 1e-9):
    """Direct quadrature of the ordered double time integral (both detector
    orderings) on a +-10 sigma box around the switching centers.

    Returns (value, error_estimate, evaluations).  Optional chi_a/chi_b
    override the Gaussian switchings (used for the cropped variant).
    """
    if T <= 0:
        raise ValueError("T must be positive")
    sigma = T / math.sqrt(2.0)
    lo = min(t_a, t_b) - 10.0 * sigma
    hi = max(t_a, t_b) + 10.0 * sigma
    chi_a = chi_a or (lambda t: np.exp(-((t - t_a) / T) ** 2))
    chi_b = chi_b or (lambda t: np.exp(-((t - t_b) / T) ** 2))
    fmax = max(abs(omega_a - k), abs(omega_b + k), abs(omega_b - k),
               abs(omega_a + k), 1.0 / T)
    n0 = int(math.ceil((hi - lo) / min(sigma / 4.0, math.pi / (4.0 * fmax))))

    def once(n):
        j1 = _ordered_integral(omega_a - k, omega_b + k, chi_a, chi_b, lo, hi, n)
        j2 = _ordered_integral(omega_b - k, omega_a + k, chi_b, chi_a, lo, hi, n)
        return j1 + j2

    coarse = once(n0)
    fine = once(2 * n0)
    err = abs(fine - coarse)
    evals = (n0 + 2 * n0) * 12 * 10 * 2
    if err > rel_tol * abs(fine):
        finer = once(4 * n0)
        err = abs(finer - fine)
        fine = finer
        evals += 4 * n0 * 12 * 10 * 2
    return fine, err, evals


# ----------------------------------------------------------------------------
# Sphere quadrature of harmonic products
# ----------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _polar_rule(n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes in cos theta as polar angles, and their weights
    (read-only: every caller shares them)."""
    xg, wg = leggauss(n_theta)
    theta = np.arccos(xg)
    theta.setflags(write=False)
    wg.setflags(write=False)
    return theta, wg


def sphere_quadrature(indices, n_theta: int = 64, n_phi: int = 128) -> complex:
    """Product Gauss-Legendre (cos theta) x trapezoid (phi) integration of a
    product of up to five spherical harmonics (with conjugation flags)."""
    if not 1 <= len(indices) <= 5:
        raise ValueError("sphere_quadrature takes 1 to 5 harmonics")
    theta, wg = _polar_rule(n_theta)
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    prod = np.ones_like(th, dtype=complex)
    for idx in indices:
        try:
            l, m, conj = idx.l, idx.m, idx.conjugated
        except AttributeError:
            l, m = idx[0], idx[1]
            conj = bool(idx[2]) if len(idx) > 2 else False
        y = sph_harm_y(l, m, th, ph)
        prod *= np.conj(y) if conj else y
    return complex((prod * wg[:, None]).sum() * (2.0 * math.pi / n_phi))


# ----------------------------------------------------------------------------
# Radial overlap brute force
# ----------------------------------------------------------------------------

def _hankel1_poly(l: int, x: np.ndarray) -> np.ndarray:
    # spherical Hankel h_l^(1)(x) = (-i)^{l+1} e^{ix}/x sum_m i^m (l+m)!/(m!(l-m)!) (2x)^-m
    acc = np.zeros_like(x, dtype=complex)
    for m in range(l + 1):
        coef = math.factorial(l + m) / (math.factorial(m) * math.factorial(l - m))
        acc = acc + (1j ** m) * coef / (2.0 * x) ** m
    return (-1j) ** (l + 1) * np.exp(1j * x) / x * acc


def radial_bruteforce(l: int, k: float, a0: float) -> tuple[float, float, int]:
    """Quadrature of integral r^3 R21 R10 j_l(kr) dr, independent of the
    closed rational forms.  Returns (value, error_bound, evaluations).

    Real-axis quadrature on [0, 60 a0] resolves the closed form down to the
    double-precision cancellation floor; past a0*k = 20 the value sits below
    that floor, so there the integrand is rewritten through the spherical
    Hankel function and integrated along the complex ray where it does not
    oscillate (valid for l <= 3; the harvesting kernels need l = 0, 2).
    """
    if l not in (0, 1, 2, 3, 4):
        raise ValueError("l must be 0..4")
    if k < 0 or a0 <= 0:
        raise ValueError("need k >= 0 and a0 > 0")
    b = 1.5 / a0
    norm = 1.0 / (math.sqrt(6.0) * a0 ** 4)

    if a0 * k <= 20.0 or l == 4:
        hi = 60.0 * a0

        def f(r):
            v = norm * r ** 4 * np.exp(-b * r) * spherical_bessel_j(l, k * r)
            return v, np.abs(v)

        pts = set(np.linspace(0.0, hi, 49))
        if k > 0:
            half = math.pi / k
            n = int(hi / half)
            if n > 1:
                stride = max(1, n // 600)
                pts.update(np.arange(1, n + 1)[::stride] * half)
        val, err, absl, ev = _adaptive_gk(f, np.array(sorted(p for p in pts if p <= hi)),
                                          1e-300, 1e-13)
        floor = 100.0 * np.finfo(float).eps * absl
        return float(val.real), float(max(err, floor)), ev

    # rotated-ray evaluation: j_l = Re h_l^(1) on the real axis and the
    # integrand is analytic in the first quadrant, so rotate onto the ray
    # where exp(-b z + i k z) is purely decaying.
    alpha = math.atan2(k, b)
    decay = math.hypot(b, k)
    s_max = 900.0 / decay
    phase = cmath.exp(1j * alpha)

    def g(s):
        z = s * phase
        v = norm * z ** 4 * np.exp(-b * z) * _hankel1_poly(l, k * z) * phase
        return v, np.abs(v)

    pts = np.concatenate([[0.0], np.geomspace(s_max * 1e-8, s_max, 129)])
    val, err, absl, ev = _adaptive_gk(g, pts, 1e-300, 1e-13)
    return float(val.real), float(max(err, 10 * np.finfo(float).eps * absl)), ev


def scalar_smearing_fourier_bruteforce(k: float, a0: float) -> float:
    """4 pi integral r^2 F(r) j_0(kr) dr: the momentum-space smearing profile
    behind the scalar kernels, by direct quadrature of smearing_scalar."""
    atom = AtomSpec(a0=a0, omega=1.0)

    def f(r):
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        on_axis = np.zeros(rr.shape + (3,))
        on_axis[..., 2] = rr
        v = 4.0 * math.pi * rr * rr * smearing_scalar(atom, on_axis) \
            * spherical_bessel_j(0, k * rr)
        return v, np.abs(v)

    hi = 60.0 * a0
    pts = set(np.linspace(0.0, hi, 49))
    if k > 0:
        half = math.pi / k
        n = int(hi / half)
        if n > 1:
            pts.update(np.arange(1, min(n, 2000) + 1) * half)
    val, _, _, _ = _adaptive_gk(f, np.array(sorted(p for p in pts if p <= hi)),
                                1e-300, 1e-12)
    return float(val.real)


# ----------------------------------------------------------------------------
# Rotation and negativity oracles
# ----------------------------------------------------------------------------

def rotation_bruteforce(l: int, m: int, angles: EulerAngles,
                        theta: float, phi: float) -> complex:
    """Evaluate Y_lm at the explicitly rotated direction; the reference for
    rotate_harmonic."""
    n = np.array([math.sin(theta) * math.cos(phi),
                  math.sin(theta) * math.sin(phi),
                  math.cos(theta)])
    v = euler_rotation_matrix(angles) @ n
    th = math.atan2(math.hypot(v[0], v[1]), v[2])
    ph = math.atan2(v[1], v[0])
    return sph_harm_y(l, m, th, ph)


def negativity_bruteforce(l_aa: float, l_bb: float, l_ab: complex,
                          m: complex) -> float:
    """Negativity from the dense partial transpose of the leading-order X
    state: assemble the 4x4 matrix, transpose the B indices, diagonalize and
    sum the negative eigenvalues."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 - l_aa - l_bb
    rho[1, 1] = l_aa
    rho[2, 2] = l_bb
    rho[1, 2] = l_ab
    rho[2, 1] = np.conj(l_ab)
    rho[3, 0] = m
    rho[0, 3] = np.conj(m)
    # partial transpose on B: indices (a b),(a' b') -> (a b'),(a' b)
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    eig = np.linalg.eigvalsh(pt)
    return float(-eig[eig < 0].sum())


# ----------------------------------------------------------------------------
# The whole battery
# ----------------------------------------------------------------------------

def _erfc_reference(z: complex) -> complex:
    """erfc by Maclaurin series (|z| <= 3) or Laplace continued fraction,
    sharing nothing with the Faddeeva package."""
    z = complex(z)
    if z.real < 0:
        return 2.0 - _erfc_reference(-z)
    if abs(z) <= 3.0:
        term = z
        acc = z
        zz = z * z
        for n in range(1, 200):
            term *= -zz / n
            acc += term / (2 * n + 1)
            if abs(term) < 1e-20 * abs(acc):
                break
        return 1.0 - 2.0 / math.sqrt(math.pi) * acc
    # sqrt(pi) e^{z^2} erfc(z) = 1/(z + (1/2)/(z + 1/(z + (3/2)/(z + ...))))
    cf = 0.0 + 0.0j
    for n in range(80, 0, -1):
        cf = (0.5 * n) / (z + cf)
    return cmath.exp(-z * z) / math.sqrt(math.pi) / (z + cf)


def run_all(seed: int = 1234, mutate: str | None = None,
            mutation_size: float = 1e-6) -> list[OracleReport]:
    """Run every oracle family at fixed seeds/grids.

    ``mutate`` perturbs one registered closed-form constant by a relative
    ``mutation_size`` for the duration of the run; a healthy battery must
    then report at least one failure.
    """
    saved = None
    if mutate is not None:
        if mutate not in MUTABLE_CONSTANTS:
            raise ValueError(f"unknown mutable constant {mutate!r}; "
                             f"choose from {sorted(MUTABLE_CONSTANTS)}")
        module, attr = MUTABLE_CONSTANTS[mutate]
        saved = getattr(module, attr)
        setattr(module, attr, saved * (1.0 + mutation_size))
    try:
        return _run_all_inner(seed)
    finally:
        if saved is not None:
            module, attr = MUTABLE_CONSTANTS[mutate]
            setattr(module, attr, saved)


def _run_all_inner(seed: int) -> list[OracleReport]:
    rng = np.random.default_rng(seed)
    reports: list[OracleReport] = []

    # 1. closed Gaussian time kernel vs direct 2D quadrature
    worst = 0.0
    evals = 0
    T = 1.0
    for tk in (0.4, 2.0, 7.0):
        for tba in (0.0, 1.7, 6.0):
            closed, _ = time_integral_closed(1.5, 1.5, tk / T, 0.0, tba, T)
            brute, _, ev = time_integral_bruteforce(1.5, 1.5, tk / T, 0.0, tba, T)
            worst = max(worst, abs(closed - brute) / abs(brute))
            evals += ev
    closed, _ = time_integral_closed(1.2, 2.1, 3.0, 0.0, 2.5, T)
    brute, _, ev = time_integral_bruteforce(1.2, 2.1, 3.0, 0.0, 2.5, T)
    worst = max(worst, abs(closed - brute) / abs(brute))
    reports.append(OracleReport("time_kernel_closed_vs_2d", 0.0, 0.0,
                                worst, 1e-8, worst <= 1e-8, evals + ev))

    # 2. EM identity/dyadic decomposition reproduces the final kernels
    a0 = 0.003
    worst = 0.0
    us = np.geomspace(1e-6, 1e6, 40)
    for u in us:
        k = math.sqrt(u) / a0
        dec = harvesting.em_decomposition_identity(k, a0, d=2.5)
        target_l = harvesting.EM_LOCAL_COEFF * (4.0 * u + 9.0) ** 2
        worst = max(worst, abs(dec.l_total - target_l) / target_l)
        kern = spherical_bessel_j(0, 2.5 * k) + spherical_bessel_j(2, 2.5 * k)
        target_m = harvesting.EM_LOCAL_COEFF * (4.0 * u + 9.0) ** 2 * kern
        scale = target_l  # j0+j2 passes through zero; compare on the kernel scale
        worst = max(worst, abs(dec.m_total - target_m) / scale)
    reports.append(OracleReport("em_decomposition_identity", 0.0, 0.0,
                                worst, 1e-12, worst <= 1e-12, 2 * len(us)))

    # 3. closed radial overlaps vs quadrature (real axis and rotated ray)
    worst = 0.0
    evals = 0
    a0 = 0.7
    scale0 = atoms.radial_overlap(0, 0.0, a0)
    for ak in (0.0, 0.02, 0.4, 2.0, 9.0, 19.0, 60.0, 400.0):
        k = ak / a0
        for l in (0, 2):
            closed = atoms.radial_overlap(l, k, a0)
            brute, berr, ev = radial_bruteforce(l, k, a0)
            # below the quadrature's own roundoff bound the comparison is
            # only meaningful in absolute terms
            denom = max(abs(closed), 10.0 * berr, 1e-14 * scale0)
            worst = max(worst, abs(closed - brute) / denom)
            evals += ev
    reports.append(OracleReport("radial_overlap_closed_vs_quad", 0.0, 0.0,
                                worst, 1e-10, worst <= 1e-10, evals))

    # 4. Gaunt integrals vs sphere quadrature
    worst = 0.0
    cases = 0
    for n in (3, 4, 5):
        for _ in range(40):
            idx = []
            for _ in range(n):
                l = int(rng.integers(0, 4))
                m = int(rng.integers(-l, l + 1))
                idx.append((l, m, bool(rng.integers(0, 2))))
            closed = gaunt_integral(idx)
            brute = sphere_quadrature(idx)
            worst = max(worst, abs(closed - brute))
            cases += 1
    reports.append(OracleReport("gaunt_vs_sphere_quadrature", 0.0, 0.0,
                                worst, 1e-10, worst <= 1e-10, cases * 64 * 128))

    # 5. harmonic rotation vs direct 3x3 rotation
    worst = 0.0
    for _ in range(100):
        ang = EulerAngles(*rng.uniform(-math.pi, math.pi, 3))
        th = float(rng.uniform(0.05, math.pi - 0.05))
        ph = float(rng.uniform(-math.pi, math.pi))
        for l in (1, 2):
            for m in range(-l, l + 1):
                lhs = rotate_harmonic(l, m, ang, th, ph)
                rhs = rotation_bruteforce(l, m, ang, th, ph)
                worst = max(worst, abs(lhs - rhs))
    reports.append(OracleReport("wigner_rotation_vs_matrix", 0.0, 0.0,
                                worst, 1e-12, worst <= 1e-12, 800))

    # 6. polarization completeness
    worst = 0.0
    for _ in range(1000):
        k = rng.normal(size=3)
        khat = k / np.linalg.norm(k)
        target = np.eye(3) - np.outer(khat, khat)
        worst = max(worst, float(np.max(np.abs(
            polarization_completeness(k) - target))))
    reports.append(OracleReport("polarization_completeness", 0.0, 0.0,
                                worst, 1e-14, worst <= 1e-14, 1000))

    # 7. Bessel recurrence j_{l-1} + j_{l+1} = (2l+1)/x j_l
    worst = 0.0
    xs = np.geomspace(0.1, 100.0, 400)
    for l in (1, 2, 3):
        lhs = spherical_bessel_j(l - 1, xs) + spherical_bessel_j(l + 1, xs)
        rhs = (2 * l + 1) / xs * spherical_bessel_j(l, xs)
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        scale = np.maximum(scale, np.abs(spherical_bessel_j(l, xs)))
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    reports.append(OracleReport("bessel_recurrence", 0.0, 0.0,
                                worst, 1e-11, worst <= 1e-11, 5 * 400))

    # 8. Faddeeva/erfc vs series + continued fraction
    worst = 0.0
    pts = [0.0 + 0.0j, 1.0 + 0.0j, 1j, 0.3 + 0.7j, 2.5 - 0.4j, -1.2 + 0.9j,
           5.0 + 3.0j, 8.0 - 2.0j]
    for z in pts:
        # w(z) = e^{-z^2} erfc(-iz)
        ref = cmath.exp(-z * z) * _erfc_reference(-1j * z)
        worst = max(worst, abs(faddeeva_w(z) - ref) / abs(ref))
    reports.append(OracleReport("faddeeva_vs_series_cf", 0.0, 0.0,
                                worst, 1e-12, worst <= 1e-12, len(pts)))

    # 9. negativity formula vs dense partial-transpose eigensolver
    worst = 0.0
    for _ in range(200):
        l_aa, l_bb = rng.uniform(0.0, 0.4, 2)
        am = rng.uniform(0.0, 0.4)
        phm = rng.uniform(0, 2 * math.pi)
        n2 = negativity_leading(l_aa, l_bb, am)
        brute = negativity_bruteforce(l_aa, l_bb, 0.0, am * cmath.exp(1j * phm))
        worst = max(worst, abs(max(0.0, n2) - brute))
    reports.append(OracleReport("negativity_vs_eigensolver", 0.0, 0.0,
                                worst, 1e-12, worst <= 1e-12, 200))

    # 10. engine momentum kernels vs the radial-overlap reduction
    worst = 0.0
    a0 = 0.4
    d = 1.9
    evals = 0
    for ak in (0.05, 0.7, 3.0, 11.0):
        k = ak / a0
        u = ak * ak
        i0, _, e0 = radial_bruteforce(0, k, a0)
        i2, _, e2 = radial_bruteforce(2, k, a0)
        evals += e0 + e2
        # local kernel: C_L/pi a0^2 /(4u+9)^6 == (1/12pi)(I0^2+2I2^2) - (1/36pi)(I0-2I2)^2
        engine_l = harvesting.EM_LOCAL_COEFF / math.pi * a0 ** 2 / (4 * u + 9) ** 6
        reduction_l = (i0 * i0 + 2 * i2 * i2) / (12 * math.pi) \
            - (i0 - 2 * i2) ** 2 / (36 * math.pi)
        worst = max(worst, abs(engine_l - reduction_l) / reduction_l)
        # nonlocal kernel with the Bessel factors
        j0 = spherical_bessel_j(0, k * d)
        j2 = spherical_bessel_j(2, k * d)
        engine_m = 2 * harvesting.EM_NONLOCAL_COEFF / math.pi ** 2 * a0 ** 2 \
            * (j0 + j2) / (4 * u + 9) ** 6
        reduction_m = (j0 * (i0 * i0 + 2 * i2 * i2)
                       + 2 * j2 * (2 * i0 * i2 - i2 * i2)) / (12 * math.pi ** 2) \
            - (j0 - 2 * j2) * (i0 - 2 * i2) ** 2 / (36 * math.pi ** 2)
        scale_m = (i0 * i0 + 2 * i2 * i2) / (12 * math.pi ** 2)
        worst = max(worst, abs(engine_m - reduction_m) / scale_m)
        # scalar kernel against the smearing Fourier transform:
        # C_L a0^4 k^4 / (4u+9)^6 == F(k)^2 / 4
        ff = scalar_smearing_fourier_bruteforce(k, a0)
        engine_sc = harvesting.SCALAR_LOCAL_COEFF * a0 ** 4 * k ** 4 \
            / (4 * u + 9) ** 6
        reduction_sc = 0.25 * ff * ff
        worst = max(worst, abs(engine_sc - reduction_sc) / reduction_sc)
        # scalar nonlocal coefficient: the ordered time kernel halves C_L
        worst = max(worst, abs(harvesting.SCALAR_NONLOCAL_COEFF
                               - 0.5 * harvesting.SCALAR_LOCAL_COEFF)
                    / harvesting.SCALAR_NONLOCAL_COEFF)
    reports.append(OracleReport("momentum_kernels_vs_reduction", 0.0, 0.0,
                                worst, 1e-9, worst <= 1e-9, evals))

    # 11. M of equal gaps (one Faddeeva call per node) vs M at a gap
    # 1e-12 apart (two calls, conj w(b - c + ia) - w(b + c + ia))
    a = AtomSpec(a0=0.02, omega=1.3, switching_width=1.0)
    b = AtomSpec(a0=0.02, omega=1.3, position=(0.0, 0.0, 2.2),
                 switching_center=1.1, switching_width=1.0,
                 orientation=EulerAngles(0.4, 0.9, -0.2))
    pair = DetectorPair(a, b, ModelKind.EM_DIPOLE)
    near = replace(pair, atom_b=replace(b, omega=b.omega * (1.0 + 1e-12)))
    m_equal = harvesting.nonlocal_term(pair)
    unequal = harvesting._evaluate(harvesting._nonlocal(near), 0.0, 1e-16, 1e-10)
    rel = abs(m_equal - unequal.value) / abs(m_equal)
    reports.append(OracleReport("nonlocal_fused_vs_general", abs(m_equal),
                                abs(unequal.value), rel, 1e-8, rel <= 1e-8,
                                unequal.evaluations))

    return reports
