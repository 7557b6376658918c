"""Angular momentum algebra: Wigner 3j symbols, Wigner D-functions, spherical
harmonics, Gaunt-type sphere integrals and the polarization completeness sum.

Conventions
-----------
Spherical harmonics are orthonormal with the Condon-Shortley phase.  The
Euler triple (psi, theta, phi) describes the orientation of atom B's frame
relative to atom A's; the matching direction map is

    n_B = Rz(phi) @ Ry(theta) @ Rz(psi) @ n_A

and harmonics transform as  Y^B_lm(n) = sum_mu Y_lmu(n) * D^l_{mu,m},
with  D^l_{mu,m}(psi, theta, phi) = e^{i mu psi} d^l_{mu,m}(-theta) e^{i m phi}.
This is the convention under which D^1_{0,0} = cos(theta) and the l=1, m=0
harmonic of a rotated atom acquires the angular factor
cos(th)cos(theta) - sin(th)sin(theta)cos(psi + ph); both are pinned by tests
against a direct 3x3 rotation oracle.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "EulerAngles",
    "wigner_3j",
    "wigner_d_small",
    "wigner_D",
    "sph_harm_y",
    "rotate_harmonic",
    "gaunt_integral",
    "polarization_completeness",
    "euler_rotation_matrix",
]


@dataclass(frozen=True)
class EulerAngles:
    psi: float = 0.0
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        for v in (self.psi, self.theta, self.phi):
            if not math.isfinite(v):
                raise ValueError("Euler angles must be finite")

    @property
    def is_identity(self) -> bool:
        return self.psi == 0.0 and self.theta == 0.0 and self.phi == 0.0


# ----------------------------------------------------------------------------
# Wigner 3j via the Racah sum with exact rational intermediates
# ----------------------------------------------------------------------------

def _fact(n: int) -> int:
    return math.factorial(n)


def wigner_3j(l1: int, l2: int, l3: int, m1: int, m2: int, m3: int) -> float:
    """Wigner 3j symbol; selection-rule failures return 0.0.

    The Racah single sum is evaluated with exact integers/rationals and a
    single square root is taken at the very end, so there is no cancellation
    error for the small l used here.
    """
    if m1 + m2 + m3 != 0:
        return 0.0
    if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
        return 0.0
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return 0.0

    t_min = max(0, l2 - l3 - m1, l1 - l3 + m2)
    t_max = min(l1 + l2 - l3, l1 - m1, l2 + m2)
    s = Fraction(0)
    for t in range(t_min, t_max + 1):
        den = (_fact(t) * _fact(l3 - l2 + t + m1) * _fact(l3 - l1 + t - m2)
               * _fact(l1 + l2 - l3 - t) * _fact(l1 - t - m1) * _fact(l2 - t + m2))
        s += Fraction(-1 if t % 2 else 1, den)
    if s == 0:
        return 0.0

    ratio = Fraction(_fact(l1 + l2 - l3) * _fact(l1 - l2 + l3) * _fact(-l1 + l2 + l3),
                     _fact(l1 + l2 + l3 + 1))
    ratio *= (_fact(l1 + m1) * _fact(l1 - m1) * _fact(l2 + m2) * _fact(l2 - m2)
              * _fact(l3 + m3) * _fact(l3 - m3))
    total = s * s * ratio  # exact (3j)^2
    sign = 1.0 if s > 0 else -1.0
    if (l1 - l2 - m3) % 2:
        sign = -sign
    return sign * math.sqrt(total.numerator / total.denominator)


# ----------------------------------------------------------------------------
# Wigner d and D
# ----------------------------------------------------------------------------

@functools.lru_cache(maxsize=128)
def _wigner_d_terms(l: int, mu: int, m: int) -> tuple[float, tuple]:
    """The integer parts of d^l_{mu,m}: the square-rooted factorial prefactor
    and, per Racah term, (negative, cos power, sin power, denominator)."""
    pref = math.sqrt(_fact(l + mu) * _fact(l - mu) * _fact(l + m) * _fact(l - m))
    terms = tuple(((mu - m + t) % 2 == 1, 2 * l + m - mu - 2 * t, mu - m + 2 * t,
                   _fact(l + m - t) * _fact(t) * _fact(mu - m + t) * _fact(l - mu - t))
                  for t in range(max(0, m - mu), min(l + m, l - mu) + 1))
    return pref, terms


def wigner_d_small(l: int, mu: int, m: int, beta: float) -> float:
    """Standard little Wigner d^l_{mu,m}(beta) (z-y-z, Condon-Shortley)."""
    if abs(mu) > l or abs(m) > l:
        raise ValueError(f"|mu|,|m| <= l violated: l={l}, mu={mu}, m={m}")
    pref, terms = _wigner_d_terms(l, mu, m)
    c = math.cos(0.5 * beta)
    s = math.sin(0.5 * beta)
    acc = 0.0
    for negative, pc, ps, den in terms:
        term = (c ** pc) * (s ** ps) / den
        acc += -term if negative else term
    return pref * acc


def wigner_D(l: int, mu: int, m: int, angles: EulerAngles) -> complex:
    """Wigner D^l_{mu,m} in the frame-change convention of this package.

    D^l_{mu,m}(psi, theta, phi) = e^{i mu psi} d^l_{mu,m}(-theta) e^{i m phi};
    the sign flip on theta makes D^1_{0,0} = cos(theta) and reproduces the
    rotated smearing-vector angular factor.
    """
    if abs(mu) > l or abs(m) > l:
        raise ValueError(f"|mu|,|m| <= l violated: l={l}, mu={mu}, m={m}")
    d = wigner_d_small(l, mu, m, angles.theta)
    if (mu - m) % 2:
        d = -d
    return complex(math.cos(mu * angles.psi + m * angles.phi),
                   math.sin(mu * angles.psi + m * angles.phi)) * d


def euler_rotation_matrix(angles: EulerAngles) -> np.ndarray:
    """3x3 direction map matching wigner_D: n_B = R @ n_A."""

    def rz(a):
        ca, sa = math.cos(a), math.sin(a)
        return np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])

    def ry(a):
        ca, sa = math.cos(a), math.sin(a)
        return np.array([[ca, 0.0, sa], [0.0, 1.0, 0.0], [-sa, 0.0, ca]])

    return rz(angles.phi) @ ry(angles.theta) @ rz(angles.psi)


# ----------------------------------------------------------------------------
# Spherical harmonics
# ----------------------------------------------------------------------------

def _assoc_legendre(l: int, m: int, x):
    # P_l^m with Condon-Shortley phase, m >= 0, by upward recurrence in l;
    # x is a float or an array, and a float runs without numpy
    if isinstance(x, float):
        somx2, pmm = math.sqrt(max(0.0, (1.0 - x) * (1.0 + x))), 1.0
    else:
        somx2, pmm = np.sqrt(np.maximum(0.0, (1.0 - x) * (1.0 + x))), np.ones_like(x)
    if m > 0:
        fact = 1.0
        for _ in range(m):
            pmm = -pmm * fact * somx2
            fact += 2.0
    if l == m:
        return pmm
    pmmp1 = x * (2 * m + 1) * pmm
    if l == m + 1:
        return pmmp1
    for ll in range(m + 2, l + 1):
        pll = (x * (2 * ll - 1) * pmmp1 - (ll + m - 1) * pmm) / (ll - m)
        pmm, pmmp1 = pmmp1, pll
    return pmmp1


def sph_harm_y(l: int, m: int, theta, phi):
    """Orthonormal spherical harmonic Y_lm(theta, phi), vectorized: array
    angles broadcast against each other, two scalars give a complex."""
    if abs(m) > l:
        raise ValueError(f"|m| <= l violated: l={l}, m={m}")
    mm = abs(m)
    norm = math.sqrt((2 * l + 1) / (4.0 * math.pi) * _fact(l - mm) / _fact(l + mm))
    scalar = np.isscalar(theta) and np.isscalar(phi)
    if scalar:  # Python floats: the same bits as numpy without its per-call cost
        x, phase = math.cos(theta), cmath.exp(1j * mm * float(phi))
    else:
        x = np.cos(np.asarray(theta, dtype=float))
        phase = np.exp(1j * mm * np.asarray(phi, dtype=float))
    y = norm * _assoc_legendre(l, mm, x) * phase
    if m < 0:
        y = y.conjugate()
        if mm % 2:
            y = -y
    return complex(y) if scalar else y


def rotate_harmonic(l: int, m: int, angles: EulerAngles, theta, phi):
    """Harmonic of the rotated (atom-B) frame evaluated in the base frame:
    Y^B_lm(theta, phi) = sum_mu Y_lmu(theta, phi) D^l_{mu,m}(angles)."""
    if abs(m) > l:
        raise ValueError(f"|m| <= l violated: l={l}, m={m}")
    return _rotated(l, m, angles, [sph_harm_y(l, mu, theta, phi) for mu in range(-l, l + 1)])


def _rotated(l: int, m: int, angles: EulerAngles, harmonics):
    # rotate_harmonic from the Y_lmu(theta, phi), mu = -l..l, in order
    acc = None
    for mu in range(-l, l + 1):
        d = wigner_D(l, mu, m, angles)
        if d == 0:
            continue
        term = harmonics[mu + l] * d
        acc = term if acc is None else acc + term
    return harmonics[m + l] * 0.0 if acc is None else acc


# ----------------------------------------------------------------------------
# Gaunt-type integrals of products of 3..5 spherical harmonics
# ----------------------------------------------------------------------------

def _as_plain_indices(indices: Sequence) -> tuple[list[tuple[int, int]], int]:
    """Resolve the conjugation flags of (l, m[, conjugated]) tuples via
    Y*_lm = (-1)^m Y_{l,-m}; returns the plain (l, m) list and the
    accumulated sign."""
    plain: list[tuple[int, int]] = []
    sign = 1
    for idx in indices:
        l, m = idx[0], idx[1]
        conj = bool(idx[2]) if len(idx) > 2 else False
        if abs(m) > l:
            raise ValueError(f"invalid harmonic index (l={l}, m={m})")
        if conj:
            if m % 2:
                sign = -sign
            m = -m
        plain.append((l, m))
    return plain, sign


def _gaunt3(l1, m1, l2, m2, l3, m3) -> float:
    pref = math.sqrt((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) / (4.0 * math.pi))
    return pref * wigner_3j(l1, l2, l3, 0, 0, 0) * wigner_3j(l1, l2, l3, m1, m2, m3)


def _product_coeffs(l1, m1, l2, m2):
    """Y_l1m1 * Y_l2m2 = sum_{lam} c_{lam} Y_{lam, m1+m2}; yields (lam, c)."""
    M = m1 + m2
    for lam in range(abs(l1 - l2), l1 + l2 + 1):
        if abs(M) > lam:
            continue
        c = math.sqrt((2 * l1 + 1) * (2 * l2 + 1) * (2 * lam + 1) / (4.0 * math.pi))
        c *= wigner_3j(l1, l2, lam, 0, 0, 0) * wigner_3j(l1, l2, lam, m1, m2, -M)
        if M % 2:
            c = -c
        if c != 0.0:
            yield lam, c


def gaunt_integral(indices: Sequence) -> float:
    """Integral over the sphere of a product of 3, 4 or 5 spherical harmonics.

    ``indices`` is a sequence of (l, m[, conjugated]) tuples.  The product
    is linearized pairwise with 3j coefficients, so the result is the finite
    lambda sum of the textbook identities.
    """
    plain, sign = _as_plain_indices(indices)
    if not 3 <= len(plain) <= 5:
        raise ValueError("gaunt_integral takes 3 to 5 harmonics")
    if sum(m for _, m in plain) != 0:
        return 0.0

    def reduce_tail(pairs) -> float:
        if len(pairs) == 3:
            (l1, m1), (l2, m2), (l3, m3) = pairs
            return _gaunt3(l1, m1, l2, m2, l3, m3)
        (l1, m1), (l2, m2) = pairs[0], pairs[1]
        acc = 0.0
        for lam, c in _product_coeffs(l1, m1, l2, m2):
            acc += c * reduce_tail([(lam, m1 + m2)] + pairs[2:])
        return acc

    return sign * reduce_tail(plain)


# ----------------------------------------------------------------------------
# Polarization completeness
# ----------------------------------------------------------------------------

def _cross(a, b) -> np.ndarray:
    # a x b row by row of two (..., 3) arrays, in np.cross's expression order
    (a0, a1, a2), (b0, b1, b2) = np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _row_norm(x: np.ndarray) -> np.ndarray:
    # |x| of each row of (..., 3); matmul's row products are np.dot's, so
    # each row gets the bits of np.linalg.norm (a row .sum() or einsum does not)
    return np.sqrt(np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0])


def polarization_completeness(k) -> np.ndarray:
    """Sum of the two transverse polarization dyadics for momentum k.

    Builds an explicit orthonormal transverse pair and returns
    eps1 (x) eps1 + eps2 (x) eps2, which must equal 1 - k k^T / |k|^2.
    k is one 3-vector, shape (3,), giving a (3, 3) matrix, or a stack of
    them, shape (..., 3), giving (..., 3, 3); each row of a stack gets the
    bits of its own single-vector call.
    """
    k = np.asarray(k, dtype=float)
    if k.shape[-1:] != (3,):
        raise ValueError("k must be a 3-vector or a stack of them, shape (..., 3)")
    finite = np.isfinite(k).all(axis=-1)
    if not finite.all():
        raise ValueError(f"k must be finite, got {k[~finite][0].tolist()}")
    # a power of two per row keeps k/|k| and the norm's squares within double range
    k = np.ldexp(k, -np.frexp(np.abs(k).max(axis=-1))[1][..., None])
    norm = _row_norm(k)
    if not norm.all():
        raise ValueError("polarization vectors are undefined for k = 0")
    khat = k / norm[..., None]
    near_x = (np.abs(khat[..., 0]) > 0.9)[..., None]
    e1 = _cross(khat, np.where(near_x, (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)))
    e1 /= _row_norm(e1)[..., None]
    e2 = _cross(khat, e1)
    return e1[..., :, None] * e1[..., None, :] + e2[..., :, None] * e2[..., None, :]
