import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vharvest.angular import (EulerAngles, euler_rotation_matrix,
                              gaunt_integral, polarization_completeness,
                              rotate_harmonic, sph_harm_y, wigner_3j,
                              wigner_D, wigner_d_small)
from vharvest.oracle import rotation_bruteforce, sphere_quadrature


# ----------------------------------------------------------------------------
# 3j symbols
# ----------------------------------------------------------------------------

def test_3j_parity_zero():
    assert wigner_3j(1, 1, 1, 0, 0, 0) == 0.0


def test_3j_110():
    assert wigner_3j(1, 1, 0, 0, 0, 0) == pytest.approx(-1.0 / math.sqrt(3.0), rel=1e-15)


def test_3j_112():
    assert wigner_3j(1, 1, 2, 0, 0, 0) == pytest.approx(math.sqrt(2.0 / 15.0), rel=1e-15)


def test_3j_110_against_sphere_quadrature():
    # integral Y10 Y10 Y00 = sqrt(3/4pi) * 3j(110;000) * 3j(110;000) * ... via
    # the three-harmonic identity; invert it with the quadrature value
    quad = sphere_quadrature([(1, 0), (1, 0), (0, 0)]).real
    pref = math.sqrt(3.0 * 3.0 * 1.0 / (4.0 * math.pi))
    sym = wigner_3j(1, 1, 0, 0, 0, 0)
    assert quad == pytest.approx(pref * sym * sym, rel=1e-12)


def test_3j_selection_rules_return_zero():
    assert wigner_3j(1, 1, 3, 0, 0, 0) == 0.0      # triangle violated
    assert wigner_3j(1, 1, 2, 1, 1, 0) == 0.0      # m-sum nonzero
    assert wigner_3j(1, 1, 2, 2, -1, -1) == 0.0    # |m| > l


def test_3j_orthogonality():
    # sum_{m1 m2} (2 l3 + 1) 3j(l1 l2 l3; m1 m2 m3) 3j(l1 l2 l3'; m1 m2 m3')
    # = delta(l3 l3') delta(m3 m3'), exact for l <= 4
    for l1, l2 in itertools.product(range(4), repeat=2):
        l3s = range(abs(l1 - l2), l1 + l2 + 1)
        for l3, l3p in itertools.product(l3s, repeat=2):
            for m3 in range(-l3, l3 + 1):
                for m3p in range(-l3p, l3p + 1):
                    s = sum((2 * l3 + 1)
                            * wigner_3j(l1, l2, l3, m1, m2, m3)
                            * wigner_3j(l1, l2, l3p, m1, m2, m3p)
                            for m1 in range(-l1, l1 + 1)
                            for m2 in range(-l2, l2 + 1))
                    want = 1.0 if (l3 == l3p and m3 == m3p) else 0.0
                    assert abs(s - want) <= 1e-13


# ----------------------------------------------------------------------------
# Wigner D
# ----------------------------------------------------------------------------

def test_D_l0_is_one(rng):
    for _ in range(5):
        ang = EulerAngles(*rng.uniform(-4, 4, 3))
        assert wigner_D(0, 0, 0, ang) == pytest.approx(1.0, abs=1e-15)


def test_D_100_is_cos_theta(rng):
    for _ in range(20):
        ang = EulerAngles(*rng.uniform(-4, 4, 3))
        assert wigner_D(1, 0, 0, ang) == pytest.approx(math.cos(ang.theta), abs=1e-14)


def test_D_unitarity(rng):
    for _ in range(20):
        ang = EulerAngles(*rng.uniform(-math.pi, math.pi, 3))
        for l in (1, 2):
            for mu in range(-l, l + 1):
                s = sum(abs(wigner_D(l, mu, m, ang)) ** 2 for m in range(-l, l + 1))
                assert s == pytest.approx(1.0, abs=1e-13)


def test_D_index_validation():
    with pytest.raises(ValueError):
        wigner_D(1, 2, 0, EulerAngles())
    with pytest.raises(ValueError):
        wigner_d_small(2, 0, 3, 0.1)


def test_d_small_special_angles():
    for l in (1, 2):
        for mu in range(-l, l + 1):
            for m in range(-l, l + 1):
                want = 1.0 if mu == m else 0.0
                assert wigner_d_small(l, mu, m, 0.0) == pytest.approx(want, abs=1e-15)
                # d(pi) concentrates on mu = -m with phase (-1)^(l-m)
                want_pi = (-1.0) ** (l - m) if mu == -m else 0.0
                assert wigner_d_small(l, mu, m, math.pi) == pytest.approx(
                    want_pi, abs=1e-15)



def _racah_d(l, mu, m, beta):
    # the direct Racah sum, factorials recomputed per term
    f = math.factorial
    pref = math.sqrt(f(l + mu) * f(l - mu) * f(l + m) * f(l - m))
    c, s = math.cos(0.5 * beta), math.sin(0.5 * beta)
    acc = 0.0
    for t in range(max(0, m - mu), min(l + m, l - mu) + 1):
        den = f(l + m - t) * f(t) * f(mu - m + t) * f(l - mu - t)
        term = (c ** (2 * l + m - mu - 2 * t)) * (s ** (mu - m + 2 * t)) / den
        acc += -term if (mu - m + t) % 2 else term
    return pref * acc


def test_d_small_equals_direct_racah_sum(rng):
    betas = [0.0, math.pi, -2.0 * math.pi] + list(rng.uniform(-7.0, 7.0, 20))
    for l in range(4):
        for mu in range(-l, l + 1):
            for m in range(-l, l + 1):
                for beta in betas:
                    assert wigner_d_small(l, mu, m, beta) == _racah_d(l, mu, m, beta)

def _euler_angles(rot):
    # inverse of euler_rotation_matrix, theta in [0, pi]; the random
    # compositions below stay away from the theta = 0, pi gimbal lock
    theta = math.atan2(math.hypot(rot[0, 2], rot[1, 2]), rot[2, 2])
    return EulerAngles(math.atan2(rot[2, 1], -rot[2, 0]), theta,
                       math.atan2(rot[1, 2], rot[0, 2]))


def test_D_composition_via_rotation_matrices(rng):
    # right action: D(a1) @ D(a2) represents R(a2) @ R(a1)
    for _ in range(100):
        a1 = EulerAngles(*rng.uniform(-3, 3, 3))
        a2 = EulerAngles(*rng.uniform(-3, 3, 3))
        rot = euler_rotation_matrix(a2) @ euler_rotation_matrix(a1)
        a12 = _euler_angles(rot)
        d1 = np.array([[wigner_D(1, mu, m, a1) for m in (-1, 0, 1)]
                       for mu in (-1, 0, 1)])
        d2 = np.array([[wigner_D(1, mu, m, a2) for m in (-1, 0, 1)]
                       for mu in (-1, 0, 1)])
        d12 = np.array([[wigner_D(1, mu, m, a12) for m in (-1, 0, 1)]
                        for mu in (-1, 0, 1)])
        assert np.max(np.abs(d1 @ d2 - d12)) <= 1e-12


# ----------------------------------------------------------------------------
# rotate_harmonic
# ----------------------------------------------------------------------------

def test_rotate_identity(rng):
    for _ in range(20):
        th = rng.uniform(0.1, math.pi - 0.1)
        ph = rng.uniform(-math.pi, math.pi)
        for l in (1, 2):
            for m in range(-l, l + 1):
                assert rotate_harmonic(l, m, EulerAngles(), th, ph) == pytest.approx(
                    sph_harm_y(l, m, th, ph), abs=1e-15)


def test_rotate_spec_example():
    # l=1, m=0, rotation (0, pi/2, 0), direction theta=pi/2, phi=0:
    # equals Y10 at the rotated direction (0, 0, -1)
    got = rotate_harmonic(1, 0, EulerAngles(0.0, math.pi / 2, 0.0),
                          math.pi / 2, 0.0)
    want = rotation_bruteforce(1, 0, EulerAngles(0.0, math.pi / 2, 0.0),
                               math.pi / 2, 0.0)
    assert got == pytest.approx(want, abs=1e-13)
    assert got.real == pytest.approx(-math.sqrt(3.0 / (4.0 * math.pi)), rel=1e-13)


def test_rotate_matches_rotation_oracle(rng):
    worst = 0.0
    for _ in range(100):
        ang = EulerAngles(*rng.uniform(-math.pi, math.pi, 3))
        th = rng.uniform(0.05, math.pi - 0.05)
        ph = rng.uniform(-math.pi, math.pi)
        for l in (1, 2):
            for m in range(-l, l + 1):
                lhs = rotate_harmonic(l, m, ang, th, ph)
                rhs = rotation_bruteforce(l, m, ang, th, ph)
                worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12


def test_rotated_l1_m0_angular_factor(rng):
    # the printed smearing-vector angular factor:
    # sqrt(3/4pi) (cos th cos T - sin th sin T cos(psi + ph))
    for _ in range(100):
        psi, big_theta, phi_euler = rng.uniform(-3, 3, 3)
        th = rng.uniform(0, math.pi)
        ph = rng.uniform(-math.pi, math.pi)
        got = rotate_harmonic(1, 0, EulerAngles(psi, big_theta, phi_euler), th, ph)
        want = math.sqrt(3.0 / (4.0 * math.pi)) * (
            math.cos(th) * math.cos(big_theta)
            - math.sin(th) * math.sin(big_theta) * math.cos(psi + ph))
        assert got == pytest.approx(want, abs=5e-15)


def test_rotate_validates_m():
    with pytest.raises(ValueError):
        rotate_harmonic(1, 2, EulerAngles(), 0.3, 0.4)


# ----------------------------------------------------------------------------
# Gaunt integrals
# ----------------------------------------------------------------------------

def test_gaunt_three_y00():
    got = gaunt_integral([(0, 0), (0, 0), (0, 0)])
    assert got == pytest.approx(1.0 / math.sqrt(4.0 * math.pi), rel=1e-14)


def test_gaunt_four_orthonormality():
    # integral Y10 Y10 Y00 Y00 = (1/4pi) integral |Y10|^2 (Y10 real)
    got = gaunt_integral([(1, 0), (1, 0), (0, 0), (0, 0)])
    assert got == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-13)


def test_gaunt_azimuthal_selection():
    assert gaunt_integral([(1, 1), (1, 0), (2, 0)]) == 0.0
    assert gaunt_integral([(2, 1, True), (1, 0), (2, 0), (1, 0)]) == 0.0


def test_gaunt_conjugation_flags():
    # Y*_21 Y_21 integrates to 1 with a pure pair
    got = gaunt_integral([(2, 1, True), (2, 1), (0, 0)])
    assert got == pytest.approx(1.0 / math.sqrt(4.0 * math.pi), rel=1e-13)


def test_gaunt_against_sphere_quadrature(rng):
    for n in (3, 4, 5):
        for _ in range(40):
            idx = []
            for _ in range(n):
                l = int(rng.integers(0, 4))
                m = int(rng.integers(-l, l + 1))
                idx.append((l, m, bool(rng.integers(0, 2))))
            assert gaunt_integral(idx) == pytest.approx(
                sphere_quadrature(idx).real, abs=1e-10)


def test_gaunt_length_validation():
    with pytest.raises(ValueError):
        gaunt_integral([(1, 0), (1, 0)])


# ----------------------------------------------------------------------------
# polarization completeness
# ----------------------------------------------------------------------------

def test_polarization_z_axis():
    got = polarization_completeness([0.0, 0.0, 1.0])
    assert np.allclose(got, np.diag([1.0, 1.0, 0.0]), atol=1e-15)


def test_polarization_diagonal_direction():
    k = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    want = np.eye(3) - np.full((3, 3), 1.0 / 3.0)
    assert np.max(np.abs(polarization_completeness(k) - want)) <= 1e-15


def test_polarization_rank_two(rng):
    for _ in range(20):
        k = rng.normal(size=3)
        assert np.trace(polarization_completeness(k)) == pytest.approx(2.0, abs=1e-14)


def test_polarization_random(rng):
    for _ in range(1000):
        k = rng.normal(size=3)
        khat = k / np.linalg.norm(k)
        want = np.eye(3) - np.outer(khat, khat)
        assert np.max(np.abs(polarization_completeness(k) - want)) <= 1e-14



def _polarization_with_np_cross(k):
    k = np.asarray(k, dtype=float)
    khat = k / np.linalg.norm(k)
    aux = np.array([0.0, 1.0, 0.0] if abs(khat[0]) > 0.9 else [1.0, 0.0, 0.0])
    e1 = np.cross(khat, aux)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(khat, e1)
    return np.outer(e1, e1) + np.outer(e2, e2)


@pytest.mark.parametrize("near_x", [True, False])
def test_polarization_cross_products_match_np_cross(rng, near_x):
    # |khat_x| > 0.9 takes the y auxiliary vector, otherwise the x one
    for _ in range(200):
        k = rng.normal(size=3)
        if near_x:
            k[0] = math.copysign(5.0 * np.linalg.norm(k[1:]) + 1e-3, k[0])
        elif abs(k[0]) > 0.9 * np.linalg.norm(k):
            k[0] *= 0.1
        assert (abs(k[0]) > 0.9 * np.linalg.norm(k)) == near_x
        got = polarization_completeness(k)
        assert np.array_equal(got, _polarization_with_np_cross(k))
        khat = k / np.linalg.norm(k)
        assert np.max(np.abs(got - (np.eye(3) - np.outer(khat, khat)))) <= 1e-14


@pytest.mark.parametrize("k", [[math.nan, 1.0, 0.0], [math.inf, 0.0, 0.0],
                               [0.0, -math.inf, 2.0]])
def test_polarization_rejects_non_finite_k(k):
    with pytest.raises(ValueError, match="k must be finite"):
        polarization_completeness(k)


@pytest.mark.parametrize("scale", [1e200, 1e-170, 2.0 ** -1070])
def test_polarization_at_extreme_scales(scale):
    # |k|^2 overflows or underflows unless k is scaled first
    khat = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    want = np.eye(3) - np.outer(khat, khat)
    assert np.max(np.abs(polarization_completeness(scale * khat) - want)) <= 1e-15


def test_polarization_zero_vector():
    with pytest.raises(ValueError):
        polarization_completeness([0.0, 0.0, 0.0])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-170, 2.0 ** -1070])
def test_polarization_stack_gives_each_row_its_single_vector_bits(rng, scale):
    # directions a hair either side of |khat_x| = 0.9, where the auxiliary
    # vector switches from x to y, then random ones and two axes
    alpha = math.acos(0.9) + rng.uniform(-1e-9, 1e-9, 40)
    beta = rng.uniform(-math.pi, math.pi, 40)
    near = np.stack([rng.choice([-1.0, 1.0], 40) * np.cos(alpha),
                     np.sin(alpha) * np.cos(beta), np.sin(alpha) * np.sin(beta)], axis=1)
    assert (np.abs(near[:, 0]) > 0.9).any() and (np.abs(near[:, 0]) < 0.9).any()
    k = scale * np.concatenate([near, rng.normal(size=(40, 3)),
                                [[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]]])
    got = polarization_completeness(k)
    assert got.shape == (len(k), 3, 3)
    for row, one in zip(k, got):
        assert _same_bits(one, polarization_completeness(row))
    assert _same_bits(polarization_completeness(k.reshape(2, -1, 3)), got.reshape(2, -1, 3, 3))


@pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0], [math.nan, 1.0, 0.0],
                                 [0.0, -math.inf, 2.0]])
def test_polarization_stack_with_one_bad_row_raises_the_single_vector_error(rng, bad):
    with pytest.raises(ValueError) as single:
        polarization_completeness(bad)
    k = rng.normal(size=(5, 3))
    k[3] = bad
    with pytest.raises(ValueError) as stacked:
        polarization_completeness(k)
    assert str(stacked.value) == str(single.value)


@pytest.mark.parametrize("k", [[1.0, 2.0], 1.0, np.ones((3, 2))])
def test_polarization_rejects_rows_that_are_not_3_vectors(k):
    with pytest.raises(ValueError, match="shape"):
        polarization_completeness(k)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3),
       st.floats(0.01, 3.13), st.floats(-3.1, 3.1))
def test_sph_harm_conjugation_property(l, dm, theta, phi):
    m = min(dm, l)
    lhs = sph_harm_y(l, -m, theta, phi)
    rhs = (-1.0) ** m * np.conj(sph_harm_y(l, m, theta, phi))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_sph_harm_scalar_equals_array_element(rng):
    theta = np.concatenate([[0.0, math.pi, 0.5 * math.pi], rng.uniform(0.0, math.pi, 30)])
    phi = np.concatenate([[0.0, -math.pi, 2.0 * math.pi], rng.uniform(-4.0, 7.0, 30)])
    for l in range(4):
        for m in range(-l, l + 1):
            grid = sph_harm_y(l, m, theta, phi)
            for i, (th, ph) in enumerate(zip(theta.tolist(), phi.tolist())):
                y = sph_harm_y(l, m, th, ph)
                assert type(y) is complex and y == grid[i]
