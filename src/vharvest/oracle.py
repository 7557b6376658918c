"""Independent brute-force validators.

Every closed form in the engine is grounded here against a computation that
shares none of its code path: direct multi-dimensional quadrature for the
time kernels and radial overlaps, sphere quadrature for the harmonic
integrals, explicit 3x3 rotations for the Wigner machinery, series/continued
fractions for the error functions, and a dense eigensolver for the
negativity.  ``run_all`` executes the whole battery and is what the CLI
``selfcheck`` command drives; ``MUTABLE_CONSTANTS`` lists the closed-form
coefficients a mutation run may perturb to prove the battery has teeth.
The closed forms only the battery and the tests call live here too; their
coefficients stay in the engine modules, where a mutation run sets them.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import spherical_jn

from . import atoms, harvesting
from .angular import (EulerAngles, _rotated, _row_norm, euler_rotation_matrix,
                      gaunt_integral, polarization_completeness, rotate_harmonic,
                      sph_harm_y)
from .atoms import AtomSpec
from .harvesting import DetectorPair, ModelKind, _mean_gap_factor, negativity_leading
from .specfun import _adaptive_gk, _faddeeva, scaled_time_kernel, spherical_bessel_j0_plus_j2

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
    "smearing_scalar",
    "smearing_vector",
    "radial_R",
    "EmDecomposition",
    "em_decomposition_identity",
    "time_integral_closed",
    "radial_overlap",
    "wavefunction_overlap_log10",
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
    rel_err: float
    tol: float
    evaluations: int

    @property
    def passed(self) -> bool:
        return bool(self.rel_err <= self.tol)  # False for NaN


# ----------------------------------------------------------------------------
# Closed forms the battery checks the engine against
# ----------------------------------------------------------------------------

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


def em_decomposition_identity(k, a0: float, d: float | None = None) -> EmDecomposition:
    """Identity/dyadic decomposition of the EM kernels at the momenta k (a
    float, or an array whose fields are arrays term by term).

    The numerators over (4u+9)^8 satisfy

        663552 (16u^2 - 8u + 9) - 24576 (20u - 9)^2 = 49152 (4u + 9)^2

    and, with the spatial Bessel factors at separation d, the same
    subtraction reproduces the 49152 (4u+9)^2 (j0 + j2)(kd) kernel of the
    nonlocal term.
    """
    if np.any(np.less(k, 0)):
        raise ValueError("k must be >= 0")
    u = (a0 * k) ** 2
    l_id = harvesting.EM_DECOMP_IDENTITY_COEFF * (16.0 * u * u - 8.0 * u + 9.0)
    l_dy = harvesting.EM_DECOMP_DYADIC_COEFF * (20.0 * u - 9.0) ** 2
    l_tot = l_id - l_dy
    if d is None:
        return EmDecomposition(u=u, l_identity=l_id, l_dyadic=l_dy, l_total=l_tot)
    x = k * d
    j0, j2 = spherical_jn(0, x), spherical_jn(2, x)
    m_id = j0 * l_id - j2 * harvesting.EM_DECOMP_M_J2_COEFF * u * (8.0 * u - 9.0)
    m_dy = l_dy * (j0 - 2.0 * j2)
    return EmDecomposition(u=u, l_identity=l_id, l_dyadic=l_dy, l_total=l_tot,
                           m_identity=m_id, m_dyadic=m_dy, m_total=m_id - m_dy)


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
    log_modulus, phase = _mean_gap_factor(omega_a, omega_b, t_a, t_b, T)
    scale = 0.5 * math.pi * T * T * (math.exp(log_modulus) * phase)
    return scale * kernel, abs(scale) * mag


def radial_overlap(l: int, k: float, a0: float) -> float:
    """integral_0^inf r^3 R21(r) R10(r) j_l(kr) dr.

    Rational closed forms in u = (a0 k)^2 for l = 0 and 2, the two values the
    2p_z harvesting kernels need.
    """
    if not (a0 > 0):
        raise ValueError("a0 must be positive")
    if k < 0:
        raise ValueError("k must be >= 0")
    u = (a0 * k) ** 2
    den = (4.0 * u + 9.0) ** 4
    if l == 0:
        return atoms.RADIAL_OVERLAP_L0_COEFF * a0 * (9.0 - 4.0 * u) / den
    if l == 2:
        return atoms.RADIAL_OVERLAP_L2_COEFF * a0 * u / den
    raise ValueError("radial_overlap supports l = 0 and 2")


def wavefunction_overlap_log10(d: float, a0: float) -> float:
    """log10 of the two-center 1s-1s overlap <1s(0)|1s(d)>, evaluated in the
    log domain so separations of thousands of Bohr radii do not underflow.

    The closed form is exp(-rho) (1 + rho + rho^2/3) with rho = d/a0;
    normalized to 1 at zero displacement.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    if not (a0 > 0):
        raise ValueError("a0 must be positive")
    rho = d / a0
    return (-rho + math.log1p(rho * (1.0 + rho / 3.0))) / math.log(10.0)


# ----------------------------------------------------------------------------
# Reference helpers the battery and the tests use; the engine does not
# ----------------------------------------------------------------------------

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


def smearing_vector(atom: AtomSpec, x) -> np.ndarray:
    """Spatial smearing vector F(x) = psi_e*(x) x psi_g(x) of the dipole
    coupling for the 1s -> 2p_z transition, with the atom's 2p_z orbital
    expressed in the base frame via its Euler orientation.

    For the identity orientation this is the closed form
    cos(th)/(4 pi a0^4 sqrt(2)) e^{-3r/2a0} r^2 (sin th cos ph, sin th sin ph, cos th).
    """
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
    # partial inner integral from the left panel edge to each outer node;
    # every panel has the same offsets, so e^{i f t} factors into one phase
    # per edge and one per offset
    left = edges[:-1]
    span = 0.5 * h * (_GL12_X + 1.0)
    offsets = 0.5 * span[:, None] * (_GL8_X[None, :] + 1.0)
    phase = np.exp(1j * freq_in * left)[:, None, None] * np.exp(1j * freq_in * offsets)
    part_in = chi_in(left[:, None, None] + offsets) * phase
    partial = (part_in * _GL8_W).sum(axis=2) * 0.5 * span
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


@functools.lru_cache(maxsize=16)
def _grid_harmonic(l: int, m: int, n_theta: int, n_phi: int) -> np.ndarray:
    """Y_lm, m >= 0, on the theta x phi grid of ``sphere_quadrature``
    (read-only: every caller shares it)."""
    theta, _ = _polar_rule(n_theta)
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    y = sph_harm_y(l, m, theta[:, None], phi[None, :])
    y.setflags(write=False)
    return y


def _grid_factor(l: int, m: int, conj: bool, n_theta: int, n_phi: int) -> np.ndarray:
    # Y_lm, or its conjugate, on the grid with sph_harm_y's bits: m < 0 from
    # the cached m >= 0 grid as sph_harm_y derives it; the conjugations and
    # the sign flip only set sign bits, so their order does not matter
    if abs(m) > l:
        raise ValueError(f"|m| <= l violated: l={l}, m={m}")
    y = _grid_harmonic(l, abs(m), n_theta, n_phi)
    if (m < 0) != conj:
        y = y.conjugate()
    return -y if m < 0 and m % 2 else y


def sphere_quadrature(indices, n_theta: int = 64, n_phi: int = 128) -> complex:
    """Product Gauss-Legendre (cos theta) x trapezoid (phi) integration of a
    product of up to five spherical harmonics (with conjugation flags).

    Each harmonic's grid comes from a small cache of the m >= 0 grids; the
    product takes per node the same float-by-complex products as the
    harmonics evaluated on a full meshgrid."""
    if not 1 <= len(indices) <= 5:
        raise ValueError("sphere_quadrature takes 1 to 5 harmonics")
    _, wg = _polar_rule(n_theta)
    prod = np.ones((n_theta, n_phi), dtype=complex)
    for idx in indices:
        prod *= _grid_factor(idx[0], idx[1], len(idx) > 2 and bool(idx[2]), n_theta, n_phi)
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
            v = norm * r ** 4 * np.exp(-b * r) * spherical_jn(l, k * r)
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
            * spherical_jn(0, k * rr)
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

def _rotated_direction(angles: EulerAngles, theta: float, phi: float) -> tuple:
    # (theta, phi) of the direction (theta, phi) under the explicit 3x3 rotation
    n = np.array([math.sin(theta) * math.cos(phi),
                  math.sin(theta) * math.sin(phi),
                  math.cos(theta)])
    v = euler_rotation_matrix(angles) @ n
    return math.atan2(math.hypot(v[0], v[1]), v[2]), math.atan2(v[1], v[0])


def rotation_bruteforce(l: int, m: int, angles: EulerAngles,
                        theta: float, phi: float) -> complex:
    """Evaluate Y_lm at the explicitly rotated direction; the reference for
    rotate_harmonic."""
    return sph_harm_y(l, m, *_rotated_direction(angles, theta, phi))


def negativity_bruteforce(l_aa, l_bb, l_ab, m):
    """Negativity from the dense partial transpose of the leading-order X
    state: assemble the 4x4 matrix, transpose the B indices, diagonalize and
    sum the negative eigenvalues.

    Of floats, giving a float, or of arrays that broadcast to a shape S,
    giving an array of shape S from one stacked eigensolve; each case gets
    the bits of its own float call."""
    l_aa, l_bb, l_ab, m = np.broadcast_arrays(l_aa, l_bb, l_ab, m)
    rho = np.zeros(l_aa.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = 1.0 - l_aa - l_bb
    rho[..., 1, 1] = l_aa
    rho[..., 2, 2] = l_bb
    rho[..., 1, 2] = l_ab
    rho[..., 2, 1] = np.conj(l_ab)
    rho[..., 3, 0] = m
    rho[..., 0, 3] = np.conj(m)
    # partial transpose on B: indices (a b),(a' b') -> (a b'),(a' b)
    pt = rho.reshape(l_aa.shape + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(rho.shape)
    eig = np.linalg.eigvalsh(pt)
    # the eigenvalues ascend, so the negative ones are summed first and in order
    out = -np.where(eig < 0, eig, 0.0).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


# ----------------------------------------------------------------------------
# The whole battery
# ----------------------------------------------------------------------------

def _faddeeva_reference(z: complex) -> complex:
    """w(z) = e^{s^2} erfc(s), s = -iz, for Im z >= 0 by the Maclaurin series
    of erfc (|z| <= 3) or the Laplace continued fraction of w, sharing
    nothing with wofz or the engine's asymptotic series."""
    s = -1j * complex(z)
    if abs(s) <= 3.0:
        term = acc = s
        for n in range(1, 200):
            term *= -s * s / n
            acc += term / (2 * n + 1)
            if abs(term) < 1e-20 * abs(acc):
                break
        return cmath.exp(s * s) * (1.0 - 2.0 / math.sqrt(math.pi) * acc)
    # sqrt(pi) e^{s^2} erfc(s) = 1/(s + (1/2)/(s + 1/(s + (3/2)/(s + ...))))
    cf = 0.0 + 0.0j
    for n in range(80, 0, -1):
        cf = (0.5 * n) / (s + cf)
    return 1.0 / math.sqrt(math.pi) / (s + cf)


def run_all(seed: int = 1234, mutate: str | None = None) -> list[OracleReport]:
    """Run every oracle family at fixed seeds/grids.

    ``mutate`` perturbs one registered closed-form constant by a relative
    1e-6 for the duration of the run; a healthy battery must then report at
    least one failure.
    """
    saved = None
    if mutate is not None:
        if mutate not in MUTABLE_CONSTANTS:
            raise ValueError(f"unknown mutable constant {mutate!r}; "
                             f"choose from {sorted(MUTABLE_CONSTANTS)}")
        module, attr = MUTABLE_CONSTANTS[mutate]
        saved = getattr(module, attr)
        setattr(module, attr, saved * (1.0 + 1e-6))
    try:
        return _run_all_inner(seed)
    finally:
        if saved is not None:
            module, attr = MUTABLE_CONSTANTS[mutate]
            setattr(module, attr, saved)


def _worse(worst: float, err: float) -> float:
    # the larger error, NaN where either is: max(worst, err) keeps worst
    # when err is NaN, and so would pass an oracle whose closed form failed
    return err if err != err or err > worst else worst


def _worst(errs: np.ndarray) -> float:
    # _worse folded over an array of errors from 0: NaN where any is
    return float(np.max(errs, initial=0.0))


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
            worst = _worse(worst, abs(closed - brute) / abs(brute))
            evals += ev
    closed, _ = time_integral_closed(1.2, 2.1, 3.0, 0.0, 2.5, T)
    brute, _, ev = time_integral_bruteforce(1.2, 2.1, 3.0, 0.0, 2.5, T)
    worst = _worse(worst, abs(closed - brute) / abs(brute))
    reports.append(OracleReport("time_kernel_closed_vs_2d", worst, 1e-8, evals + ev))

    # 2. EM identity/dyadic decomposition reproduces the final kernels
    a0 = 0.003
    us = np.geomspace(1e-6, 1e6, 40)
    k = np.sqrt(us) / a0
    dec = em_decomposition_identity(k, a0, d=2.5)
    target_l = harvesting.EM_LOCAL_COEFF * (4.0 * us + 9.0) ** 2
    target_m = target_l * (spherical_jn(0, 2.5 * k) + spherical_jn(2, 2.5 * k))
    # j0+j2 passes through zero: compare M on the kernel scale too
    worst = _worst(np.abs((dec.l_total - target_l, dec.m_total - target_m)) / target_l)
    reports.append(OracleReport("em_decomposition_identity", worst, 1e-12, 2 * len(us)))

    # 3. closed radial overlaps vs quadrature (real axis and rotated ray)
    worst = 0.0
    evals = 0
    a0 = 0.7
    scale0 = radial_overlap(0, 0.0, a0)
    for ak in (0.0, 0.02, 0.4, 2.0, 9.0, 19.0, 60.0, 400.0):
        k = ak / a0
        for l in (0, 2):
            closed = radial_overlap(l, k, a0)
            brute, berr, ev = radial_bruteforce(l, k, a0)
            # below the quadrature's own roundoff bound the comparison is
            # only meaningful in absolute terms
            denom = max(abs(closed), 10.0 * berr, 1e-14 * scale0)
            worst = _worse(worst, abs(closed - brute) / denom)
            evals += ev
    reports.append(OracleReport("radial_overlap_closed_vs_quad", worst, 1e-10, evals))

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
            worst = _worse(worst, abs(closed - brute))
            cases += 1
    reports.append(OracleReport("gaunt_vs_sphere_quadrature", worst, 1e-10,
                                cases * 64 * 128))

    # 5. harmonic rotation (rotate_harmonic) vs direct 3x3 rotation
    # (rotation_bruteforce), with the rotation and each distinct harmonic
    # evaluated once per angle
    worst = 0.0
    for _ in range(100):
        ang = EulerAngles(*rng.uniform(-math.pi, math.pi, 3))
        th = float(rng.uniform(0.05, math.pi - 0.05))
        ph = float(rng.uniform(-math.pi, math.pi))
        rotated = _rotated_direction(ang, th, ph)
        for l in (1, 2):
            ys = [sph_harm_y(l, mu, th, ph) for mu in range(-l, l + 1)]
            for m in range(-l, l + 1):
                lhs = _rotated(l, m, ang, ys)
                rhs = sph_harm_y(l, m, *rotated)
                worst = _worse(worst, abs(lhs - rhs))
    reports.append(OracleReport("wigner_rotation_vs_matrix", worst, 1e-12, 800))

    # 6. polarization completeness, 1,000 directions in one stack
    k = rng.normal(size=(1000, 3))
    khat = k / _row_norm(k)[:, None]
    target = np.eye(3) - khat[:, :, None] * khat[:, None, :]
    worst = _worst(np.abs(polarization_completeness(k) - target).max(axis=(1, 2)))
    reports.append(OracleReport("polarization_completeness", worst, 1e-14, len(k)))

    # 7. Bessel recurrence j_{l-1} + j_{l+1} = (2l+1)/x j_l; at l = 1 the
    # left side is the EM spatial kernel j0 + j2, the right scipy's j1
    worst = 0.0
    xs = np.geomspace(0.1, 100.0, 400)
    for l in (1, 2, 3):
        lhs = (spherical_bessel_j0_plus_j2(xs)[0] if l == 1 else
               spherical_jn(l - 1, xs) + spherical_jn(l + 1, xs))
        rhs = (2 * l + 1) / xs * spherical_jn(l, xs)
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        scale = np.maximum(scale, np.abs(spherical_jn(l, xs)))
        worst = _worse(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    reports.append(OracleReport("bessel_recurrence", worst, 1e-11, 5 * 400))

    # 8. the time kernel's Faddeeva function, wofz below |z| = 7 and the
    # asymptotic series past it, vs series + continued fraction
    worst = 0.0
    pts = [0.0 + 0.0j, 1.0 + 0.0j, 1j, 0.3 + 0.7j, -1.2 + 0.9j, 5.0 + 3.0j,
           7.5 + 0.05j, 8.0 + 2.0j, -12.0 + 0.3j, 30.0 + 0.001j, 1e3 + 2.0j]
    for z in pts:
        w = complex(_faddeeva(np.array([z.real]), z.imag)[0])
        ref = _faddeeva_reference(z)
        worst = _worse(worst, abs(w - ref) / abs(ref))
    reports.append(OracleReport("faddeeva_vs_series_cf", worst, 1e-12, len(pts)))

    # 9. negativity formula vs dense partial-transpose eigensolver, 200
    # draws of (L_AA, L_BB, |M|, arg M) in one stacked eigensolve
    l_aa, l_bb, am, phm = rng.uniform(0.0, [0.4, 0.4, 0.4, 2 * math.pi], size=(200, 4)).T
    m = np.array([a * cmath.exp(1j * p) for a, p in zip(am.tolist(), phm.tolist())])
    n2 = negativity_leading(l_aa, l_bb, am)
    brute = negativity_bruteforce(l_aa, l_bb, 0.0, m)
    worst = _worst(np.abs(np.maximum(n2, 0.0) - brute))
    reports.append(OracleReport("negativity_vs_eigensolver", worst, 1e-12, len(m)))

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
        worst = _worse(worst, abs(engine_l - reduction_l) / reduction_l)
        # nonlocal kernel with the Bessel factors
        j0, j2 = spherical_jn(0, k * d), spherical_jn(2, k * d)
        engine_m = 2 * harvesting.EM_NONLOCAL_COEFF / math.pi ** 2 * a0 ** 2 \
            * (j0 + j2) / (4 * u + 9) ** 6
        reduction_m = (j0 * (i0 * i0 + 2 * i2 * i2)
                       + 2 * j2 * (2 * i0 * i2 - i2 * i2)) / (12 * math.pi ** 2) \
            - (j0 - 2 * j2) * (i0 - 2 * i2) ** 2 / (36 * math.pi ** 2)
        scale_m = (i0 * i0 + 2 * i2 * i2) / (12 * math.pi ** 2)
        worst = _worse(worst, abs(engine_m - reduction_m) / scale_m)
        # scalar kernel against the smearing Fourier transform:
        # C_L a0^4 k^4 / (4u+9)^6 == F(k)^2 / 4
        ff = scalar_smearing_fourier_bruteforce(k, a0)
        engine_sc = harvesting.SCALAR_LOCAL_COEFF * a0 ** 4 * k ** 4 \
            / (4 * u + 9) ** 6
        reduction_sc = 0.25 * ff * ff
        worst = _worse(worst, abs(engine_sc - reduction_sc) / reduction_sc)
        # scalar nonlocal coefficient: the ordered time kernel halves C_L
        worst = _worse(worst, abs(harvesting.SCALAR_NONLOCAL_COEFF
                                  - 0.5 * harvesting.SCALAR_LOCAL_COEFF)
                       / harvesting.SCALAR_NONLOCAL_COEFF)
    reports.append(OracleReport("momentum_kernels_vs_reduction", worst, 1e-9, evals))

    # 11. M of equal gaps (one Faddeeva call per node) vs M at a gap
    # 1e-12 apart (two calls, conj w(b - c + ia) - w(b + c + ia))
    a = AtomSpec(a0=0.02, omega=1.3, switching_width=1.0)
    b = AtomSpec(a0=0.02, omega=1.3, position=(0.0, 0.0, 2.2),
                 switching_center=1.1, switching_width=1.0,
                 orientation=EulerAngles(0.4, 0.9, -0.2))
    pair = DetectorPair(a, b, ModelKind.EM_DIPOLE)
    near = replace(pair, atom_b=replace(b, omega=b.omega * (1.0 + 1e-12)))
    m_equal = harvesting.nonlocal_term(pair)
    unequal, quad = harvesting._field(near, "m")
    rel = abs(m_equal - unequal) / abs(m_equal)
    reports.append(OracleReport("nonlocal_fused_vs_general", rel, 1e-8, quad.evaluations))

    return reports
