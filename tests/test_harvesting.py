import cmath
import functools
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import reference_kernels
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.special import spherical_jn

from vharvest import harvesting, specfun
from vharvest.angular import EulerAngles
from vharvest.atoms import AtomSpec, SwitchingKind
from vharvest.harvesting import (DetectorPair, HarvestTerms, ModelKind,
                                 assemble_state, compute_terms,
                                 cross_noise_term, local_term,
                                 negativity_leading, nonlocal_term,
                                 positivity_report)
from vharvest.oracle import (em_decomposition_identity, negativity_bruteforce,
                             time_integral_bruteforce, time_integral_closed)
from vharvest.specfun import scaled_time_kernel, spherical_bessel_j0, spherical_bessel_j0_plus_j2
from vharvest.survey import Axis, spacetime_map


def _member(pair, name):
    # a term's member (share, clock, d) in the engine's table of the pair alone
    return harvesting._table(harvesting._columns([pair]), (name,))["members"][0][0]


def make_pair(model=ModelKind.EM_DIPOLE, a0_omega=1e-3, omega=2.0, d=3.0,
              tba=1.5, theta=0.0, psi=0.0, phi=0.0, T=1.0, coupling=1.0):
    a0 = a0_omega / omega
    atom_a = AtomSpec(a0=a0, omega=omega, switching_width=T)
    atom_b = AtomSpec(a0=a0, omega=omega, position=(0.0, 0.0, d),
                      switching_center=tba, switching_width=T,
                      orientation=EulerAngles(psi, theta, phi))
    return DetectorPair(atom_a, atom_b, model, coupling=coupling)


# ----------------------------------------------------------------------------
# local term
# ----------------------------------------------------------------------------

def test_local_positive_at_figure_gap():
    pair = make_pair(omega=12.0)
    val = local_term(pair)
    assert val > 0.0
    assert math.isfinite(val)


def test_local_superpolynomial_suppression_in_T():
    # e^{-T^2 Omega^2/2} beats any power of T
    omega = 1.0
    vals = {}
    for T in (2.0, 4.0, 8.0):
        a0 = 1e-3 / omega
        a = AtomSpec(a0=a0, omega=omega, switching_width=T)
        b = AtomSpec(a0=a0, omega=omega, position=(0, 0, 1.0), switching_width=T)
        vals[T] = local_term(DetectorPair(a, b, ModelKind.EM_DIPOLE))
    assert vals[8.0] < (2.0 / 8.0) ** 10 * vals[2.0]
    assert vals[4.0] < (2.0 / 4.0) ** 10 * vals[2.0]


def full_plane_time_bruteforce(omega, k, T, n=6001):
    # |integral chi(t) e^{i (omega + k) t} dt|^2 by direct quadrature
    ts = np.linspace(-10.0 * T, 10.0 * T, n)
    f = np.exp(-(ts / T) ** 2) * np.exp(1j * (omega + k) * ts)
    val = np.trapezoid(f, ts)
    return abs(val) ** 2


def test_local_time_factor_vs_2d_bruteforce():
    # the local kernel's time part is pi T^2 e^{-T^2(Omega+k)^2/2}; the full
    # 2D integral factorizes, so the oracle is the squared 1D quadrature
    T = 1.0
    for w in (0.5, 1.0, 2.0, 4.0):
        closed = math.pi * T * T * math.exp(-0.5 * (T * w) ** 2)
        brute = full_plane_time_bruteforce(w, 0.0, T)
        assert abs(closed - brute) <= 1e-8 * brute


def test_local_independent_of_separation_and_delay():
    vals = [local_term(make_pair(d=d, tba=t))
            for d, t in ((0.5, 0.0), (3.0, 1.5), (11.0, 10.0))]
    assert vals[0] == pytest.approx(vals[1], rel=1e-14)
    assert vals[0] == pytest.approx(vals[2], rel=1e-14)


def test_derivative_vs_scalar_integrand_ratio(rng):
    # the derivative coupling inserts exactly k^2 in every integrand
    pair_sc = make_pair(model=ModelKind.UDW_SCALAR)
    pair_dv = make_pair(model=ModelKind.UDW_DERIVATIVE)

    def integrand(pair, name):
        # the value of one term's integrand, its member in the pair's table
        f = reference_kernels.integrand(*_member(pair, name))
        return lambda k: f(k)[0]

    f_sc, f_dv = integrand(pair_sc, "l_aa"), integrand(pair_dv, "l_aa")
    g_sc, g_dv = integrand(pair_sc, "m"), integrand(pair_dv, "m")
    ks = rng.uniform(0.05, 30.0, 200)
    assert np.max(np.abs(f_dv(ks) / f_sc(ks) - ks * ks) / (ks * ks)) <= 1e-12
    assert np.max(np.abs(g_dv(ks) / g_sc(ks) - ks * ks) / (ks * ks)) <= 1e-12


def test_grid_integrates_one_l(monkeypatch):
    # every point of a grid at one gap shares L: one integral, one member,
    # on a fixed panel set (no kernel), and M's group never holds it
    fixed, damped = [], []
    real_fixed, real_damped = harvesting.integrate_fixed_group, harvesting.integrate_damped_group

    def fixed_spy(f, edges, kernel, members, *args, **kwargs):
        fixed.append((kernel, [d for _, d in members]))
        return real_fixed(f, edges, kernel, members, *args, **kwargs)

    def damped_spy(spec, *args, **kwargs):
        damped.append(len(spec.members))
        return real_damped(spec, *args, **kwargs)

    monkeypatch.setattr(harvesting, "integrate_fixed_group", fixed_spy)
    monkeypatch.setattr(harvesting, "integrate_damped_group", damped_spy)
    pairs = [make_pair(omega=12.0, d=d, tba=tba) for d in (3.0, 11.0) for tba in (0.5, 10.0)]
    terms = harvesting.compute_terms_many(pairs, include_cross=False)
    assert fixed == [(None, [0.0])] and damped == [4]
    assert len({t.l_aa for t in terms} | {t.l_bb for t in terms}) == 1


def test_local_terms_are_the_same_bits_in_and_across_calls():
    pair = make_pair(omega=12.0, d=11.0, tba=10.0)
    first = compute_terms(pair, include_cross=False)
    # L_BB of identical atoms is L_AA's integral
    assert first.l_bb == first.l_aa
    assert first.quadrature_errors["l_bb"] == first.quadrature_errors["l_aa"]
    # a second call, and another point of the same grid, give the same L
    for again in (compute_terms(pair, include_cross=False),
                  compute_terms(make_pair(omega=12.0, d=3.0, tba=0.5), include_cross=False)):
        assert again.l_aa == first.l_aa and again.l_bb == first.l_bb
        assert again.quadrature_errors["l_aa"] == first.quadrature_errors["l_aa"]
    assert local_term(pair) == first.l_aa


def test_mutated_local_coefficient_moves_l(monkeypatch):
    pair = make_pair(omega=12.0)
    base = compute_terms(pair, include_cross=False)
    monkeypatch.setattr(harvesting, "EM_LOCAL_COEFF",
                        harvesting.EM_LOCAL_COEFF * (1.0 + 1e-6))
    mutated = compute_terms(pair, include_cross=False)
    assert mutated.l_aa / base.l_aa - 1.0 == pytest.approx(1e-6, rel=1e-8)
    assert local_term(pair) / base.l_aa - 1.0 == pytest.approx(1e-6, rel=1e-8)
    assert mutated.m == base.m


def test_local_term_takes_only_a_or_b():
    pair = make_pair(omega=12.0)
    assert local_term(pair, "a") == local_term(pair, "A")
    assert local_term(pair, "b") == local_term(pair, "B")
    for which in ("zzz", "", "AB"):
        with pytest.raises(ValueError, match="which"):
            local_term(pair, which)


# ----------------------------------------------------------------------------
# closed time integral
# ----------------------------------------------------------------------------

def test_time_integral_equal_gap_reduction(rng):
    # reduces to (pi T^2/2) e^{i Omega (t_a + t_b)} * scaled kernel
    for _ in range(200):
        omega = rng.uniform(0.1, 3.0)
        k = rng.uniform(0.0, 25.0)
        T = rng.uniform(0.5, 2.0)
        t_a, t_b = rng.uniform(-5, 5, 2)
        closed, _ = time_integral_closed(omega, omega, k, t_a, t_b, T)
        kernel = scaled_time_kernel(k, t_b - t_a, T, d_omega=0.0)[0] \
            * math.exp(-0.5 * (T * omega) ** 2)
        bracket = 0.5 * math.pi * T * T \
            * cmath.exp(1j * omega * (t_a + t_b)) * kernel
        scale = max(abs(closed), abs(bracket))
        if scale > 0:
            assert abs(closed - bracket) <= 1e-11 * scale


def test_time_integral_exchange_symmetry():
    # summing both orderings makes t_BA -> -t_BA a relabeling
    j1, _ = time_integral_closed(1.1, 1.1, 2.0, 0.0, 3.0, 1.0)
    j2, _ = time_integral_closed(1.1, 1.1, 2.0, 3.0, 0.0, 1.0)
    assert j1 == pytest.approx(j2, rel=1e-13)


def test_time_integral_k0_elementary():
    # at k = 0 the ordered sum symmetrizes to the separable product
    # pi T^2 e^{-(Oa^2+Ob^2) T^2/4} e^{i(Oa t_a + Ob t_b)}
    for oa, ob in ((1.3, 1.3), (0.8, 2.1)):
        t_a, t_b, T = 0.7, 2.4, 1.2
        closed, _ = time_integral_closed(oa, ob, 0.0, t_a, t_b, T)
        want = math.pi * T * T \
            * math.exp(-0.25 * T * T * (oa * oa + ob * ob)) \
            * cmath.exp(1j * (oa * t_a + ob * t_b))
        assert closed == pytest.approx(want, rel=1e-12)


def test_time_integral_translation_phase():
    j0, _ = time_integral_closed(1.0, 1.7, 2.5, 0.0, 2.0, 1.0)
    js, _ = time_integral_closed(1.0, 1.7, 2.5, 5.0, 7.0, 1.0)
    assert abs(js) == pytest.approx(abs(j0), rel=1e-12)


def test_time_integral_vs_bruteforce_sample():
    for (oa, ob, k, tba) in ((1.5, 1.5, 1.0, 0.0), (1.5, 1.5, 5.0, 3.0),
                             (1.2, 2.1, 3.0, 2.5)):
        closed, _ = time_integral_closed(oa, ob, k, 0.0, tba, 1.0)
        brute, _, _ = time_integral_bruteforce(oa, ob, k, 0.0, tba, 1.0)
        assert abs(closed - brute) <= 1e-8 * abs(brute)


def _time_integral_mp(mp, omega_a, omega_b, k, t_a, t_b, T):
    # the closed time integral for one node k in the erfc form, at mpmath's
    # working precision: pi T^2/2 [exp(x) erfc(z1) + exp(x - k c) erfc(z2)]
    Oa, Ob, k, t_a, t_b, T = map(mp.mpf, (omega_a, omega_b, k, t_a, t_b, T))
    t_ba, d_om = t_b - t_a, Oa - Ob
    c = T * T * d_om + 2j * t_ba
    x = ((-2 * (k * T) ** 2 + 2 * k * c - (T * Oa) ** 2 - (T * Ob) ** 2) / 4
         + 1j * (t_b * (Oa + Ob) - t_ba * Oa))
    den = 2 * mp.sqrt(2) * T
    z1 = (2 * t_ba + 1j * T * T * (2 * k - d_om)) / den
    z2 = (-2 * t_ba + 1j * T * T * (2 * k + d_om)) / den
    return mp.pi * T * T / 2 * (mp.exp(x) * mp.erfc(z1) + mp.exp(x - k * c) * mp.erfc(z2))


def test_time_integral_array_equals_scalar_per_node(rng):
    # one array call agrees with 40-digit mpmath per node within the
    # rounding bound 50 eps x magnitude: k = 0, the Gaussian head, the
    # algebraic wings past k_hi out to the cutoff of the p = 3 rational
    # kernel, both signs of t_BA, t_BA = 0 and t_a != 0
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    T, a0 = 0.8, 0.02
    k_hi = math.sqrt(750.0 / (0.5 * T * T))
    k_wing = harvesting._WING_CUTOFF[3] / (2.0 * a0)
    k = np.concatenate(([0.0], rng.uniform(0.0, k_hi, 200),
                        np.geomspace(k_hi, k_wing, 200)))
    for oa, ob, t_a, t_b in ((1.0, 1.25, 0.0, 7.5), (3.0, 2.4, 1.3, -4.0),
                             (12.0, 14.0, 2.0, 2.0), (0.7, 0.7, -3.0, 9.0)):
        got, mag = time_integral_closed(oa, ob, k, t_a, t_b, T)
        want = np.array([complex(_time_integral_mp(mp, oa, ob, kk, t_a, t_b, T))
                         for kk in k])
        assert got.shape == mag.shape == k.shape
        assert np.all(np.abs(got - want) <= specfun._ROUNDOFF * mag)
        one, one_mag = time_integral_closed(oa, ob, float(k[7]), t_a, t_b, T)
        assert type(one) is complex and type(one_mag) is float
        assert abs(one - want[7]) <= specfun._ROUNDOFF * one_mag


def test_unequal_gap_integrand_array_equals_node_by_node(rng):
    # the M integrand of unequal gaps on a node array, against the same
    # integrand with its time factor, the closed time integral over
    # pi T^2/2 exp(-T^2 Omega^2/2 + i Omega (t_A + t_B)) at the mean gap
    # Omega, taken in 40-digit mpmath per node, within the rounding bound of
    # its magnitude
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    a0 = 1e-3
    a = AtomSpec(a0=a0, omega=2.0, switching_width=1.0)
    b = AtomSpec(a0=a0, omega=2.3, position=(0, 0, 4.0), switching_center=6.0,
                 switching_width=1.0)
    mean = (mp.mpf(a.omega) + mp.mpf(b.omega)) / 2
    scale = mp.pi / 2 * mp.exp(-mean ** 2 / 2 + 6j * mean)
    for model in ModelKind:
        pair = DetectorPair(a, b, model)
        share, clock, d = _member(pair, "m")
        k = np.concatenate((rng.uniform(0.0, 40.0, 150), rng.uniform(40.0, 5e3, 60)))
        time = np.array([complex(_time_integral_mp(mp, a.omega, b.omega, kk, 0.0, 6.0, 1.0)
                                 / scale) for kk in k])
        p = share[1]
        want = k ** p * share[4](k * 4.0)[0] * time / (4.0 * (a0 * k) ** 2 + 9.0) ** 6
        got, mag = reference_kernels.integrand(share, clock, d)(k)
        assert np.all(np.abs(got - want) <= specfun._ROUNDOFF * mag)


# ----------------------------------------------------------------------------
# nonlocal term
# ----------------------------------------------------------------------------

def test_nonlocal_cos_theta_factorization():
    base = abs(nonlocal_term(make_pair(theta=0.0)))
    for theta in (math.pi / 6.0, math.pi / 3.0):
        got = abs(nonlocal_term(make_pair(theta=theta)))
        assert got == pytest.approx(base * abs(math.cos(theta)), rel=1e-9)


def test_nonlocal_perpendicular_below_floor():
    pair = make_pair(theta=math.pi / 2.0)
    m = nonlocal_term(pair)
    base = abs(nonlocal_term(make_pair(theta=0.0)))
    assert abs(m) <= 1e-15 * base  # cos(pi/2) rounds to ~6e-17


def test_nonlocal_even_in_tba():
    m_plus = nonlocal_term(make_pair(tba=2.5))
    m_minus = nonlocal_term(make_pair(tba=-2.5))
    assert abs(m_plus) == pytest.approx(abs(m_minus), rel=1e-12)


def test_nonlocal_scalar_small_d_vs_time_bruteforce():
    # shared momentum grid, closed vs quadrature time integrals
    omega, T = 1.0, 1.0
    a0 = 1e-3
    d = 1e-4
    xg, wg = leggauss(24)
    k_panels = np.linspace(0.0, 25.0, 26)
    total_closed = 0.0 + 0.0j
    total_brute = 0.0 + 0.0j
    for lo, hi in zip(k_panels[:-1], k_panels[1:]):
        ks = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xg
        for k, w in zip(ks, wg * 0.5 * (hi - lo)):
            weight = k ** 5 * spherical_bessel_j0(k * d)[0] \
                / (4.0 * (a0 * k) ** 2 + 9.0) ** 6
            total_closed += w * weight * time_integral_closed(
                omega, omega, k, 0.0, 0.0, T)[0]
            brute, _, _ = time_integral_bruteforce(omega, omega, k, 0.0, 0.0, T,
                                                   rel_tol=1e-10)
            total_brute += w * weight * brute
    assert abs(total_closed - total_brute) <= 1e-8 * abs(total_closed)


def test_nonlocal_unequal_gaps_runs():
    a0 = 1e-3
    a = AtomSpec(a0=a0, omega=1.0, switching_width=1.0)
    b = AtomSpec(a0=a0, omega=1.6, position=(0, 0, 2.0), switching_center=1.0,
                 switching_width=1.0)
    pair = DetectorPair(a, b, ModelKind.UDW_SCALAR)
    m = nonlocal_term(pair)
    assert np.isfinite(m.real) and np.isfinite(m.imag)
    assert abs(m) > 0


# ----------------------------------------------------------------------------
# cross noise term
# ----------------------------------------------------------------------------

def test_cross_noise_coincidence_limit():
    pair = make_pair(d=1e-9, tba=0.0, theta=0.0)
    l_ab = cross_noise_term(pair)
    l_aa = local_term(pair)
    assert l_ab.real == pytest.approx(l_aa, rel=1e-9)
    assert abs(l_ab.imag) <= 1e-9 * l_aa


def test_cross_noise_bounded_by_local(rng):
    for _ in range(6):
        pair = make_pair(d=float(rng.uniform(0.1, 8.0)),
                         tba=float(rng.uniform(0.0, 8.0)),
                         theta=float(rng.uniform(0.0, math.pi)))
        l_ab = abs(cross_noise_term(pair))
        l_aa = local_term(pair)
        err = 1e-9 * l_aa + 1e-20
        assert l_ab <= l_aa + err


def test_cross_noise_perpendicular():
    pair = make_pair(theta=math.pi / 2.0)
    base = local_term(pair)
    assert abs(cross_noise_term(pair)) <= 1e-15 * base


def test_cross_noise_requires_identical():
    a = AtomSpec(a0=1e-3, omega=1.0, switching_width=1.0)
    b = AtomSpec(a0=1e-3, omega=2.0, position=(0, 0, 1.0), switching_width=1.0)
    with pytest.raises(ValueError):
        cross_noise_term(DetectorPair(a, b, ModelKind.EM_DIPOLE))


# ----------------------------------------------------------------------------
# state assembly and negativity
# ----------------------------------------------------------------------------

def _terms(l_aa, l_bb, m, l_ab=0.0 + 0.0j):
    return HarvestTerms(l_aa=l_aa, l_bb=l_bb, l_ab=l_ab, m=m,
                        quadrature_errors={}, log_scale=0.0,
                        l_aa_scaled=l_aa, l_bb_scaled=l_bb,
                        l_ab_scaled=l_ab, m_scaled=m)


def test_negativity_symmetric_case():
    terms = _terms(0.3, 0.3, 0.5 + 0.0j)
    assert terms.negativity2 == pytest.approx(0.2, abs=1e-15)
    assert terms.negativity == pytest.approx(0.2, abs=1e-15)
    assert terms.concurrence == pytest.approx(0.4, abs=1e-15)


def test_negativity_clamped():
    terms = _terms(0.5, 0.5, 0.1 + 0.0j)
    assert terms.negativity2 == pytest.approx(-0.4, abs=1e-15)
    assert terms.negativity == 0.0
    assert terms.concurrence == 0.0


def test_negativity_asymmetric_vs_eigensolver():
    l_aa, l_bb, am = 0.2, 0.4, 0.35
    n2 = negativity_leading(l_aa, l_bb, am)
    want = -0.5 * (0.6 - math.sqrt(0.04 + 4 * 0.1225))
    assert n2 == pytest.approx(want, abs=1e-15)
    brute = negativity_bruteforce(l_aa, l_bb, 0.0, am * cmath.exp(0.7j))
    assert max(0.0, n2) == pytest.approx(brute, abs=1e-13)


def test_state_shape_and_trace():
    terms = _terms(0.1, 0.2, 0.05 + 0.02j, l_ab=0.01 - 0.03j)
    rho = assemble_state(terms)
    assert abs(np.trace(rho) - 1.0) <= 1e-15
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-15
    # X shape: the eight structural zeros of the leading-order state
    zeros = [(0, 1), (0, 2), (1, 0), (2, 0), (1, 3), (2, 3), (3, 1), (3, 2)]
    for i, j in zeros:
        assert rho[i, j] == 0.0
    assert rho[3, 3] == 0.0


def test_state_rejects_invalid_perturbation():
    with pytest.raises(ValueError):
        assemble_state(_terms(0.7, 0.6, 0.1 + 0.0j))


@pytest.mark.parametrize("m", [0.6 + 0.0j, 0.3 - 0.42j, complex(math.nan, 0.0)])
def test_state_rejects_an_m_no_density_matrix_has(m):
    # |rho_ij| <= sqrt(rho_ii rho_jj) <= 1/2 off the diagonal
    with pytest.raises(ValueError, match=r"\|M\| = .* > 1/2.*coupling"):
        assemble_state(_terms(0.1, 0.1, m))
    assemble_state(_terms(0.1, 0.1, 0.5 + 0.0j))


def test_coupling_rescales_quadratically():
    t1 = compute_terms(make_pair(coupling=1.0), include_cross=True)
    t2 = compute_terms(make_pair(coupling=2.0), include_cross=True)
    assert t2.l_aa == pytest.approx(4.0 * t1.l_aa, rel=1e-13)
    assert abs(t2.m) == pytest.approx(4.0 * abs(t1.m), rel=1e-13)
    # the sign of N2 (harvest or not) is coupling independent
    assert (t2.negativity2 > 0) == (t1.negativity2 > 0)


# ----------------------------------------------------------------------------
# positivity diagnostics
# ----------------------------------------------------------------------------

def test_positivity_engine_point():
    terms = compute_terms(make_pair(d=2.0, tba=1.0, omega=2.0), include_cross=True)
    rep = positivity_report(terms)
    assert rep.passed
    assert rep.e3 >= 0.0
    assert rep.cross_inequality >= -rep.tolerance


def test_positivity_synthetic_violation():
    terms = _terms(0.01, 0.01, 0.0 + 0.0j, l_ab=0.05 + 0.0j)
    rep = positivity_report(terms)
    assert not rep.passed
    assert rep.cross_inequality < 0


def test_positivity_e2_is_fourth_order_in_the_coupling():
    # M carries e^2, so E2 = -|M|^2 is O(e^4): half the coupling gives 1/16
    reps = {}
    for e in (1.0, 0.5):
        terms = compute_terms(make_pair(coupling=e), include_cross=True)
        reps[e] = positivity_report(terms)
        assert reps[e].e2_fourth_order == -abs(terms.m) ** 2
    assert reps[0.5].e2_fourth_order == pytest.approx(
        reps[1.0].e2_fourth_order / 16.0, rel=1e-13)


def test_positivity_degenerate_e4():
    terms = _terms(0.2, 0.2, 0.0 + 0.0j, l_ab=0.2 + 0.0j)
    rep = positivity_report(terms)
    assert rep.e4 == pytest.approx(0.0, abs=1e-15)


# ----------------------------------------------------------------------------
# EM decomposition identity
# ----------------------------------------------------------------------------

def test_em_decomposition_algebra():
    a0 = 0.003
    for u in np.geomspace(1e-6, 1e6, 100):
        k = math.sqrt(u) / a0
        dec = em_decomposition_identity(k, a0)
        target = 49152.0 * (4.0 * u + 9.0) ** 2
        assert abs(dec.l_identity - dec.l_dyadic - target) <= 1e-12 * target


def test_em_decomposition_at_zero():
    dec = em_decomposition_identity(0.0, 0.01)
    assert dec.l_total == pytest.approx(49152.0 * 81.0, rel=1e-15)


def test_em_decomposition_m_kernel():
    a0, d = 0.003, 2.5
    for u in np.geomspace(1e-4, 1e4, 50):
        k = math.sqrt(u) / a0
        dec = em_decomposition_identity(k, a0, d=d)
        kern = spherical_bessel_j0(k * d)[0] + spherical_jn(2, k * d)
        target = 49152.0 * (4.0 * u + 9.0) ** 2 * kern
        scale = 49152.0 * (4.0 * u + 9.0) ** 2
        assert abs(dec.m_total - target) <= 1e-12 * scale


# ----------------------------------------------------------------------------
# scaled arithmetic at large gaps
# ----------------------------------------------------------------------------

def test_scaled_path_survives_underflow():
    pair = make_pair(omega=40.0, d=30.0, tba=10.0)
    terms = compute_terms(pair, include_cross=False)
    assert terms.l_aa == 0.0  # underflowed as an absolute number
    assert terms.l_aa_scaled > 0.0
    assert math.isfinite(terms.negativity2_scaled)


def _unequal_gap_pair(omega_b_over_a):
    # Omega_A T = 40, d/T = 11, t_BA/T = 10, a0 Omega_A = 1e-3
    a = AtomSpec(a0=1e-3 / 40.0, omega=40.0)
    b = replace(a, omega=40.0 * omega_b_over_a, position=(0.0, 0.0, 11.0),
                switching_center=10.0)
    return DetectorPair(a, b, ModelKind.EM_DIPOLE)


def test_scaled_path_survives_underflow_at_unequal_gaps():
    terms = compute_terms(_unequal_gap_pair(1.02), include_cross=False)
    assert terms.log_scale == -0.5 * (0.5 * (40.0 + 40.8)) ** 2
    for value in (terms.l_aa_scaled, terms.l_bb_scaled, abs(terms.m_scaled)):
        assert 0.0 < value < math.inf
    assert terms.harvestable()


def test_unequal_gaps_out_of_double_range_raise():
    pair = _unequal_gap_pair(2.0)
    with pytest.raises(ValueError, match="double range"):
        compute_terms(pair, include_cross=False)
    with pytest.raises(ValueError, match="double range"):
        local_term(pair)


# ----------------------------------------------------------------------------
# one engine: views, cropped switching, rejected pairs
# ----------------------------------------------------------------------------

def _view_pairs(rng, unequal: bool):
    for model in ModelKind:
        for _ in range(4):
            omega = float(rng.uniform(0.5, 15.0))
            a0 = 10.0 ** float(rng.uniform(-4.0, -2.0)) / omega
            a = AtomSpec(a0=a0, omega=omega)
            b = AtomSpec(a0=a0, omega=omega * (float(rng.uniform(0.8, 1.25)) if unequal else 1.0),
                         position=(0.0, 0.0, float(rng.uniform(0.5, 25.0))),
                         switching_center=float(rng.uniform(0.5, 25.0)),
                         orientation=EulerAngles(*rng.uniform(0.0, math.pi, 3)))
            yield DetectorPair(a, b, model)
    if not unequal:
        yield _edge_pair()


def _edge_pair():
    # near scatter pool pair 4226 (each parameter within 10 %): here M and
    # L_AB both stop at the live edge, where M's panels once depended on
    # whether L_AB was integrated with it
    omega, a0_omega = 0.607473638360221, 0.0024294886767909003
    a = AtomSpec(a0=a0_omega / omega, omega=omega)
    b = AtomSpec(a0=a0_omega / omega, omega=omega, position=(0.0, 0.0, 16.255138927132),
                 switching_center=16.90654684022171,
                 orientation=EulerAngles(6.1644003086754795, 2.3372023674070217,
                                         5.80899114090197))
    return DetectorPair(a, b, ModelKind.UDW_DERIVATIVE)


def test_views_equal_compute_terms_bitwise_identical_atoms(rng):
    for pair in _view_pairs(rng, unequal=False):
        terms = compute_terms(pair)
        assert local_term(pair) == terms.l_aa
        assert local_term(pair, "B") == terms.l_bb
        assert nonlocal_term(pair) == terms.m
        assert cross_noise_term(pair) == terms.l_ab


def test_views_equal_compute_terms_bitwise_unequal_gaps(rng):
    for pair in _view_pairs(rng, unequal=True):
        terms = compute_terms(pair, include_cross=False)
        assert local_term(pair) == terms.l_aa
        assert local_term(pair, "B") == terms.l_bb
        assert nonlocal_term(pair) == terms.m


def test_cropped_switching_error_for_every_pair():
    cropped = SwitchingKind("cropped_gaussian")
    a = AtomSpec(a0=1e-3, omega=2.0)
    for omega_b in (2.0, 2.6):
        b = AtomSpec(a0=1e-3, omega=omega_b, position=(0.0, 0.0, 3.0),
                     switching_center=1.5)
        pair = DetectorPair(a, b, ModelKind.UDW_SCALAR)
        terms = compute_terms(pair, switching=cropped, include_cross=False)
        assert terms.quadrature_errors["crop_tail"] > 0.0
        plain = compute_terms(pair, include_cross=False)
        assert "crop_tail" not in plain.quadrature_errors
        assert (terms.negativity2_error_scaled()
                > plain.negativity2_error_scaled())


def test_auto_switching_crops_only_outside_the_lightcone_band():
    inside, outside = make_pair(d=3.0, tba=1.5), make_pair(d=20.0, tba=1.0)
    auto = SwitchingKind("auto")
    assert "crop_tail" not in compute_terms(inside, switching=auto).quadrature_errors
    assert (compute_terms(outside, switching=auto).quadrature_errors
            == compute_terms(outside, switching=SwitchingKind("cropped_gaussian"))
            .quadrature_errors)


def test_m_without_l_ab_within_the_reported_error():
    # M is integrated in a group of M members alone: L_AB cannot move it
    pair = _edge_pair()
    terms = compute_terms(pair)
    alone = compute_terms(pair, include_cross=False)
    assert alone.m == terms.m
    assert abs(alone.m_scaled - terms.m_scaled) <= (alone.quadrature_errors["m"]
                                                    + terms.quadrature_errors["m"])


def test_identical_pair_integrates_l_ab_in_one_pass_on_its_fixed_panel_set(monkeypatch):
    # three group calls (L and L_AB on fixed panel sets, M alone on its
    # head panels); L_AB's is one Gauss-Kronrod pass and one reduction,
    # which evaluate the spatial kernel once on its nodes, out to where the
    # Gaussian is e^-60 down, on panels of at most four half periods
    groups, passes, reduces, space = [], [], [], []
    real_fixed, real_damped = harvesting.integrate_fixed_group, harvesting.integrate_damped_group
    real_panels, real_reduce = specfun._gk15_panels, specfun._gk15_reduce
    real_j0 = harvesting.spherical_bessel_j0

    def fixed(f, edges, kernel, members, *args, **kwargs):
        groups.append(("fixed", kernel is not None, len(members)))
        return real_fixed(f, edges, kernel, members, *args, **kwargs)

    def damped(spec, *args, **kwargs):
        groups.append(("damped", True, len(spec.members)))
        return real_damped(spec, *args, **kwargs)

    def j0(x):
        space.append(np.size(x))
        return real_j0(x)

    def gk15_panels(f, lo, hi, kernel=None, members=((None, 0.0),), time=None):
        if groups[-1][:2] == ("fixed", True):
            passes.append((lo, hi))
        return real_panels(f, lo, hi, kernel, members, time)

    def gk15_reduce(*args):
        reduces.append(groups[-1])
        return real_reduce(*args)

    monkeypatch.setattr(harvesting, "integrate_fixed_group", fixed)
    monkeypatch.setattr(harvesting, "integrate_damped_group", damped)
    monkeypatch.setattr(harvesting, "spherical_bessel_j0", j0)
    monkeypatch.setattr(specfun, "_gk15_panels", gk15_panels)
    monkeypatch.setattr(specfun, "_gk15_reduce", gk15_reduce)
    compute_terms(make_pair(model=ModelKind.UDW_SCALAR, omega=2.0, d=3.0, tba=1.5))
    assert groups == [("fixed", False, 1), ("damped", True, 1), ("fixed", True, 1)]
    ((lo, hi),) = passes
    assert reduces.count(("fixed", True, 1)) == 1
    assert space[-1] == specfun._XGK.size * lo.size
    assert lo[0] == 0.0 and 0.5 * hi[-1] ** 2 + 2.0 * hi[-1] == pytest.approx(60.0)
    assert np.max(hi - lo) <= 4.0 * math.pi / 4.5 * (1.0 + 1e-12)


def test_a_view_raises_only_its_own_range_error():
    # L_BB relative to M's scale at the mean gap leaves double range, L_AA
    # does not: the view of L_AA returns it, that of L_BB and compute_terms
    # raise the range error
    a = AtomSpec(a0=1e-4, omega=10.0)
    b = AtomSpec(a0=1e-4, omega=60.0, position=(0.0, 0.0, 3.0), switching_center=1.0)
    pair = DetectorPair(a, b, ModelKind.EM_DIPOLE)
    assert local_term(pair, "A") == pytest.approx(3.098e-35, rel=1e-3)
    with pytest.raises(ValueError, match="outside double range") as view:
        local_term(pair, "B")
    with pytest.raises(ValueError, match="outside double range") as terms:
        compute_terms(pair, include_cross=False)
    assert str(view.value) == str(terms.value)


def test_a_separation_past_the_squares_range_is_beyond_the_seed_panels():
    # d^2 overflows past d ~ 1.34e154 T and underflows below ~1.5e-154 T; the
    # separation does neither, so a far pair is rejected for its oscillation,
    # with the message it has at d = 1e150 T
    assert make_pair(d=1e-170).separation == 1e-170
    for d in (1e150, 1e155, 1e300):
        pair = make_pair(model=ModelKind.UDW_SCALAR, d=d)
        assert pair.separation == d
        with pytest.raises(ValueError, match=re.escape(f"a separation d of {d:.6g} oscillates")):
            compute_terms(pair)


@pytest.mark.parametrize("omega_b", [1e160, 2e160])
def test_gaps_past_the_squares_range_raise_the_range_error(omega_b):
    # (Omega T)^2 overflows past Omega ~ 1.34e154/T, so exp(log_scale) is 0
    # and a term relative to it is undefined: out of range, as at 1e150/T
    a = AtomSpec(a0=1e-3, omega=1e160)
    b = AtomSpec(a0=1e-3, omega=omega_b, position=(0.0, 0.0, 1.0))
    pair = DetectorPair(a, b, ModelKind.UDW_SCALAR)
    with pytest.raises(ValueError, match=re.escape("= exp(-inf): outside double range")):
        compute_terms(pair, include_cross=False)
    with pytest.raises(ValueError, match="outside double range"):
        local_term(pair)


def test_nonlocal_term_returns_m_when_only_l_ab_misses(monkeypatch):
    # M and L_AB of an identical pair are two groups; a miss of L_AB alone
    # fails cross_noise_term and compute_terms, not nonlocal_term
    pair = make_pair()
    m = nonlocal_term(pair)
    real = harvesting.integrate_fixed_group

    def group(f, edges, kernel, members, *args, **kwargs):
        # L_AB: a fixed panel set with a spatial kernel
        return [specfun.QuadratureConvergenceError("forced miss", q) if kernel is not None else q
                for q in real(f, edges, kernel, members, *args, **kwargs)]

    monkeypatch.setattr(harvesting, "integrate_fixed_group", group)
    assert nonlocal_term(pair) == m
    with pytest.raises(specfun.QuadratureConvergenceError, match="forced miss"):
        cross_noise_term(pair)
    with pytest.raises(specfun.QuadratureConvergenceError, match="forced miss"):
        compute_terms(pair)


def test_unequal_pair_integrates_l_aa_and_l_bb_apart(monkeypatch):
    # three group calls (L_AA and L_BB, one fixed panel set each; M): each
    # L's integral depends only on its own atom's gap, so it has the bits of
    # the L of an identical pair of that atom, and the views have
    # compute_terms' bits
    groups = []
    real_fixed, real_damped = harvesting.integrate_fixed_group, harvesting.integrate_damped_group

    def fixed(f, edges, kernel, members, *args, **kwargs):
        groups.append(("fixed", len(members)))
        return real_fixed(f, edges, kernel, members, *args, **kwargs)

    def damped(spec, *args, **kwargs):
        groups.append(("damped", len(spec.members)))
        return real_damped(spec, *args, **kwargs)

    monkeypatch.setattr(harvesting, "integrate_fixed_group", fixed)
    monkeypatch.setattr(harvesting, "integrate_damped_group", damped)
    a = AtomSpec(a0=5e-4, omega=2.0)
    b = AtomSpec(a0=5e-4, omega=2.3, position=(0.0, 0.0, 3.0), switching_center=1.5)
    pair = DetectorPair(a, b, ModelKind.UDW_SCALAR)
    terms = compute_terms(pair, include_cross=False)
    assert groups == [("fixed", 1), ("fixed", 1), ("damped", 1)]
    assert terms.l_aa != terms.l_bb
    groups.clear()
    assert local_term(pair, "B") == terms.l_bb
    assert local_term(pair, "A") == terms.l_aa
    assert groups == [("fixed", 1)] * 2
    twins = [DetectorPair(atom, replace(atom, position=(0.0, 0.0, 5.0), switching_center=-2.0),
                          ModelKind.UDW_SCALAR) for atom in (a, b)]
    assert ([harvesting._field(twin, "l_aa")[1] for twin in twins]
            == [harvesting._field(pair, name)[1] for name in ("l_aa", "l_bb")])


@pytest.mark.parametrize("seed", range(4))
def test_unequal_gaps_of_one_a0_share_a_pass_within_their_errors(seed, monkeypatch):
    # 6 pairs a model at one a0 and T, t_BA in [-15, 15] T, Omega_B/Omega_A
    # in [0.8, 1.25] and d = 0 among the scalar models' separations: each
    # model's M is one group, whose passes evaluate the time factors of
    # several clocks with Omega_A != Omega_B in one call.  Every M lies
    # within the summed errors of the pair computed alone, and no
    # harvestable() changes
    rng = np.random.default_rng(seed)
    T, omega, clocks = 1.0, 3.0, []
    real = harvesting.scaled_time_kernel

    def kernel(k, t_ba, T, *, d_omega):
        clocks.append(np.size(d_omega) - np.count_nonzero(d_omega == 0.0))
        return real(k, t_ba, T, d_omega=d_omega)

    for model in ModelKind:
        ds = rng.uniform(0.5, 10.0, 6)
        ds[0] = 0.0 if model is not ModelKind.EM_DIPOLE else ds[0]
        pairs = [DetectorPair(AtomSpec(a0=1e-3 / omega, omega=omega, switching_width=T),
                              AtomSpec(a0=1e-3 / omega, omega=omega * rng.uniform(0.8, 1.25),
                                       position=(0.0, 0.0, d), switching_width=T,
                                       switching_center=rng.uniform(-15.0, 15.0) * T), model,
                              coupling=1e-6) for d in ds]
        monkeypatch.setattr(harvesting, "scaled_time_kernel", kernel)
        together = harvesting.compute_terms_many(pairs, include_cross=False)
        monkeypatch.undo()
        for pair, terms in zip(pairs, together):
            alone = compute_terms(pair, include_cross=False)
            assert abs(terms.m - alone.m) <= (terms.quadrature_errors["m"]
                                              + alone.quadrature_errors["m"])
            assert terms.harvestable() == alone.harvestable()
    assert max(clocks) == 6


@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("ratio", [1.0, 1.15])
def test_integrands_equal_their_group_rows_bitwise(model, ratio):
    # a term's integrand alone (reference_kernels.integrand), reduced by the rule
    # on its own, has the bits of its row of a head pass in a group spec of
    # its clock's kind where that pass reduces the row alone (or in the
    # stack of rows without a spatial factor: L_AA and L_BB), and agrees
    # with it within each panel's roundoff floor F = 50 eps x resabs (its
    # error within 200 F) where the pass reduces it in a block (two or more
    # distinct (clock, d > 0): here M and M of the pair delayed by 2 T), up
    # to a few units of 2^-1074 where the magnitudes are subnormal
    T = 1.3
    a = AtomSpec(a0=1e-3, omega=2.0, switching_width=T)
    b = AtomSpec(a0=1e-3, omega=2.0 * ratio, position=(0.0, 0.0, 3.0),
                 switching_center=-1.5, switching_width=T)
    pair = DetectorPair(a, b, model)
    names = harvesting._NAMES[:3 + pair.identical]
    members = {name: _member(pair, name) for name in names}
    share, (kind, t_ba, d_omega), d = members["m"]
    members["late m"] = (share, (kind, t_ba + 2.0 * T, d_omega), d)
    edges = np.concatenate((np.linspace(0.0, 60.0, 41), np.geomspace(60.0, 1e6, 9)[1:]))
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    k = (0.5 * (hi + lo)[:, None] + half[:, None] * specfun._XGK).ravel()
    for kind in ("L", "M", "L_AB"):
        group = [n for n in members if members[n][1][0] == kind]
        if not group:
            continue
        spec = harvesting._spec(members[group[0]][0], [members[n][1:] for n in group])
        rows = specfun._gk15_panels(spec.integrand, lo, hi, spec.kernel, spec.members,
                                    spec.time)[:3]
        block = spec.kernel is not None and len({m for m in spec.members if m[1] > 0.0}) > 1
        for i, name in enumerate(group):
            alone = specfun._gk15_reduce(*reference_kernels.integrand(*members[name])(k), half)
            if block and spec.members[i][1] > 0.0:
                floor = specfun._ROUNDOFF * alone[2]
                units = 64.0 * np.finfo(float).smallest_subnormal
                assert np.all(np.abs(rows[0][i] - alone[0]) <= floor + units)
                assert np.all(np.abs(rows[1][i] - alone[1]) <= 200.0 * floor + units)
                assert np.allclose(rows[2][i], alone[2], rtol=8.0 * np.finfo(float).eps, atol=units)
            else:
                assert all(np.array_equal(x[i], y) for x, y in zip(rows, alone))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(ModelKind)), st.floats(0.5, 2.0), st.floats(0.5, 12.0),
       st.floats(-3.0, -2.0), st.one_of(st.just(1.0), st.floats(0.8, 1.25)),
       st.floats(0.1, 20.0), st.floats(-20.0, 20.0))
def test_relabelling_and_translating_the_pair_keeps_its_terms(
        model, T, omega_T, log_a0_omega, ratio, d_over_T, tba_over_T):
    # the same two atoms with A and B swapped and B moved to the origin and
    # time 0 (A to -d and -t_BA): L_AA and L_BB swap, and |M|, |L_AB| and
    # N^(2) agree within the summed reported errors
    omega, d, tba = omega_T / T, d_over_T * T, tba_over_T * T
    a = AtomSpec(a0=10.0 ** log_a0_omega / omega, omega=omega, switching_width=T)
    b = replace(a, omega=omega * ratio, position=(0.0, 0.0, d), switching_center=tba)
    # coupling 1e-3: every term is scaled by e^2, and at coupling 1 a pair at
    # small d can have |M| > 1/2, which compute_terms rejects
    pair = DetectorPair(a, b, model, coupling=1e-3)
    swapped = DetectorPair(replace(b, position=(0.0, 0.0, 0.0), switching_center=0.0),
                           replace(a, position=(0.0, 0.0, -d), switching_center=-tba), model,
                           coupling=1e-3)
    try:
        one = compute_terms(pair, include_cross=pair.identical)
    except specfun.QuadratureConvergenceError:
        # the small-separation stall of the derivative coupling (at Omega T =
        # 0.5, a0 Omega = 1e-2 and d <= 0.125 T): the relabelled pair stalls too
        with pytest.raises(specfun.QuadratureConvergenceError):
            compute_terms(swapped, include_cross=pair.identical)
        return
    two = compute_terms(swapped, include_cross=pair.identical)
    assert (two.l_aa, two.l_bb, two.log_scale) == (one.l_bb, one.l_aa, one.log_scale)
    e1, e2 = one.quadrature_errors, two.quadrature_errors
    assert abs(abs(one.m_scaled) - abs(two.m_scaled)) <= e1["m"] + e2["m"]
    assert (abs(abs(one.l_ab_scaled) - abs(two.l_ab_scaled))
            <= e1.get("l_ab", 0.0) + e2.get("l_ab", 0.0))
    assert (abs(one.negativity2_scaled - two.negativity2_scaled)
            <= one.negativity2_error_scaled() + two.negativity2_error_scaled())


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(ModelKind)), st.floats(0.5, 2.0), st.floats(0.5, 12.0),
       st.floats(-3.0, -2.0), st.one_of(st.just(1.0), st.floats(0.8, 1.25)),
       st.floats(0.1, 20.0), st.floats(-20.0, 20.0), st.floats(-1.0, 1.0),
       st.floats(0.0, 2.0 * math.pi))
def test_rotating_the_pair_keeps_its_terms(
        model, T, omega_T, log_a0_omega, ratio, d_over_T, tba_over_T, cos_theta, phi):
    # B moved from +z to -z keeps every term bit for bit; for the scalar
    # couplings, whose smearing is spherical, B turned to any direction at
    # the same d keeps L_AA and L_BB bit for bit and M, L_AB and N^(2)
    # within the summed reported errors
    omega, d, tba = omega_T / T, d_over_T * T, tba_over_T * T
    a = AtomSpec(a0=10.0 ** log_a0_omega / omega, omega=omega, switching_width=T)
    b = replace(a, omega=omega * ratio, position=(0.0, 0.0, d), switching_center=tba)
    pair = DetectorPair(a, b, model, coupling=1e-3)  # as above: no pair has |M| > 1/2
    mirrored = replace(pair, atom_b=replace(b, position=(0.0, 0.0, -d)))
    try:
        one = compute_terms(pair, include_cross=pair.identical)
    except specfun.QuadratureConvergenceError:
        # the small-separation stall of the derivative coupling
        with pytest.raises(specfun.QuadratureConvergenceError):
            compute_terms(mirrored, include_cross=pair.identical)
        return
    assert compute_terms(mirrored, include_cross=pair.identical) == one
    if model is ModelKind.EM_DIPOLE:
        return  # the EM kernel needs B on A's z axis
    sin_theta = math.sqrt(1.0 - cos_theta * cos_theta)
    direction = (sin_theta * math.cos(phi), sin_theta * math.sin(phi), cos_theta)
    turned = replace(pair, atom_b=replace(b, position=tuple(d * x for x in direction)))
    two = compute_terms(turned, include_cross=pair.identical)
    assert (two.l_aa, two.l_bb, two.log_scale) == (one.l_aa, one.l_bb, one.log_scale)
    e1, e2 = one.quadrature_errors, two.quadrature_errors
    assert abs(one.m_scaled - two.m_scaled) <= e1["m"] + e2["m"]
    assert (abs(one.l_ab_scaled - two.l_ab_scaled)
            <= e1.get("l_ab", 0.0) + e2.get("l_ab", 0.0))
    assert (abs(one.negativity2_scaled - two.negativity2_scaled)
            <= one.negativity2_error_scaled() + two.negativity2_error_scaled())


def test_j0_keeps_the_bits_of_its_formulas():
    # j0 without the cos, and sinh s / s on the nodes below 5 alone
    x = np.concatenate([np.linspace(0.0, 30.0, 30001),
                        [0.0, np.nextafter(5.0, 0.0), 5.0, 1e-300, 5e-324]])
    j0, mag = spherical_bessel_j0(x)
    ref = reference_kernels.spherical_bessel_j0(x)
    s = np.clip(x, 1e-300, 5.0)
    assert np.array_equal(j0, ref)
    assert np.array_equal(mag, np.where(x < 5.0, np.sinh(s) / s, np.abs(ref)))
    # the tails' (members, nodes) arrays
    j0_2d, mag_2d = spherical_bessel_j0(x[:30000].reshape(3, -1))
    assert np.array_equal(j0_2d.ravel(), j0[:30000])
    assert np.array_equal(mag_2d.ravel(), mag[:30000])


def test_cross_term_sums_no_tail(monkeypatch):
    # the Gaussian of L_AB is exactly 0.0 past its fixed panel set: L_AB has
    # no wings, and no member of its group takes a ray pass
    rays = []
    real_rays = specfun._rays

    def spy(f, wave, members, *args):
        rays.extend(clock[0] for clock, _ in members)
        return real_rays(f, wave, members, *args)

    monkeypatch.setattr(specfun, "_rays", spy)
    for d, tba in ((3.0, 1.5), (3.0, 0.0), (0.0, 1.5)):
        assert math.isfinite(abs(cross_noise_term(make_pair(d=d, tba=tba))))
    assert "L_AB" not in rays


# ----------------------------------------------------------------------------
# the live edge: every M member stops where its Gaussian is dead, and takes
# its wings past it along rays
# ----------------------------------------------------------------------------

def _edge_groups(rng):
    # M of a random pair (unequal gaps in half the draws) with the M of its
    # identical twin, so the two members' c differ, and of the twin delayed
    # to 30 T; and the wingless terms of the twin, L_AB and L
    model = ModelKind(rng.choice([m.value for m in ModelKind]))
    T = rng.uniform(0.5, 2.0)
    omega = rng.uniform(0.5, 15.0) / T
    a0 = 10.0 ** rng.uniform(-4.0, -2.0) / omega
    ratio = rng.choice([1.0, rng.uniform(0.8, 1.25)])
    d, tba = T * rng.uniform(0.0, 25.0), T * rng.uniform(5.0, 25.0)
    a = AtomSpec(a0=a0, omega=omega, switching_width=T)
    b = AtomSpec(a0=a0, omega=omega * ratio, position=(0.0, 0.0, d),
                 switching_center=tba, switching_width=T)
    twin = DetectorPair(a, replace(b, omega=omega), model)
    late = DetectorPair(a, replace(b, omega=omega, switching_center=30.0 * T), model)
    return ([_member(DetectorPair(a, b, model), "m"), _member(twin, "m"), _member(late, "m")],
            [_member(twin, "l_ab"), _member(twin, "l_aa")])


def _abs_integral(f, lo, hi, panels):
    # composite 16-point Gauss-Legendre of |f(k)| on geometric panels
    x, w = leggauss(16)
    edges = np.geomspace(lo, hi, panels + 1)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    k = (mid[:, None] + half[:, None] * x).ravel()
    return float(np.sum((np.abs(f(k)).reshape(panels, -1) @ w) * half))


def _gaussian_part(term):
    # k -> M's integrand less its wings: |kern(kd)| 2 e^{-(b+c)^2} k^p / (4u+9)^6
    (_, p, a0, T, kernel), (_, t_ba, d_omega), d = term
    c = math.copysign(T * d_omega / (2.0 * math.sqrt(2.0)), 1.0 if t_ba >= 0.0 else -1.0)
    return lambda k: (np.abs(kernel(k * d)[0]) * 2.0 * np.exp(-(T * k / math.sqrt(2.0) + c) ** 2)
                      * harvesting._scale(p, a0)(k))


def test_edge_bound_holds(rng):
    # B bounds the integral of the Gaussian part's |f| past the live edge,
    # brute force, for M at each member's d and at d = 0; and the bound
    # past the end of an L or L_AB member's fixed panel set bounds its
    # integral of |f| there
    for _ in range(30):
        m_group, fixed = _edge_groups(rng)
        for group in (m_group, [(s, c, 0.0) for s, c, _ in m_group]):
            k_live, bounds = harvesting._live_edge(group[0][0], [(c, d) for _, c, d in group])
            for term, bound in zip(group, bounds):
                T = term[0][3]
                # past k_live + 12 sqrt2/T, b - |c| > 19: the Gaussian part is dead
                brute = _abs_integral(_gaussian_part(term), k_live,
                                      k_live + 12.0 * math.sqrt(2.0) / T, 200)
                assert 0.0 < brute <= bound
        for share, clock, d in fixed:
            _, edges, _, _, bound, _ = harvesting._fixed(share, clock[2], [(clock, d)])
            _, p, a0, T, _ = share
            f = reference_kernels.integrand(share, clock, d)
            near = edges[-1] + 12.0 * math.sqrt(2.0) / T  # past it the Gaussian is dead
            far = 3.0 * harvesting._WING_CUTOFF[p] / (2.0 * a0)
            brute = (_abs_integral(lambda k: f(k)[0], edges[-1], near, 200)
                     + _abs_integral(lambda k: f(k)[0], near, far, 1500))
            assert 0.0 < brute <= bound


def test_a_member_that_stops_lies_within_its_error_of_the_full_range(monkeypatch):
    # at t_BA >= 16 T the wings carry e^{-t_BA^2/(2 T^2)} < e^-128: without
    # its ray pass's value, each member lies within its error of its full
    # value
    pairs = [make_pair(model=model, omega=omega, d=d, tba=tba)
             for model in ModelKind for omega in (1.0, 2.0)
             for d, tba in ((3.0, 20.0), (0.0, 16.0), (18.0, 16.0))]
    full = harvesting.compute_terms_many(pairs)
    real_rays, rays = specfun._rays, []

    def no_value(*args):
        value, *rest = real_rays(*args)
        rays.append(value)
        return (0.0 * value, *rest)

    monkeypatch.setattr(specfun, "_rays", no_value)
    stopped = harvesting.compute_terms_many(pairs)
    for s, f in zip(stopped, full):
        for name in ("m", "l_aa", "l_ab"):
            assert (abs(getattr(s, name + "_scaled") - getattr(f, name + "_scaled"))
                    <= s.quadrature_errors[name])
    assert rays


def test_a_late_pair_evaluates_its_time_kernel_only_below_the_live_edge(monkeypatch):
    # at t_BA = 20 T, M's head, where the time kernel's values enter M,
    # stops at the live edge (sqrt(60) sqrt(2)/T for equal gaps), and one
    # ray pass takes its wings; past the edge the time kernel is evaluated
    # only inside that pass, on its envelope row, for the magnitude
    k_live = math.sqrt(60.0) * math.sqrt(2.0)
    heads, rays, past, inside = [], [], [], [False]
    real_panels, real_rays = specfun._gk15_panels, specfun._rays
    real_kernel = harvesting.scaled_time_kernel

    def kernel(k, *args, **kwargs):
        if np.max(k) > k_live:
            past.append(inside[0])
        return real_kernel(k, *args, **kwargs)

    def panels(f, lo, hi, *args, **kwargs):
        heads.append(hi.max())
        return real_panels(f, lo, hi, *args, **kwargs)

    def spy(*args):
        rays.append(args[4])
        inside[0] = True
        try:
            return real_rays(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(harvesting, "scaled_time_kernel", kernel)
    monkeypatch.setattr(specfun, "_gk15_panels", panels)
    monkeypatch.setattr(specfun, "_rays", spy)
    for model in ModelKind:
        m = nonlocal_term(make_pair(model=model, d=3.0, tba=20.0))
        assert math.isfinite(abs(m)) and m != 0.0
    assert heads and max(heads) == k_live
    assert len(rays) == 3 and all(k0 == [k_live] for k0 in rays)
    assert len(past) == 3 and all(past)


def test_a_group_where_no_member_could_stop_has_no_edge(monkeypatch):
    # every M member can stop: at t_BA = 1.5 T the wings are far above any
    # floor, and M alone still stops at the live edge, with the bound of its
    # Gaussian part alone, and takes the seeds below the edge in its first
    # pass.  A spec whose members could not stop (no bounds, no wings) has
    # no edge: its first pass takes all the seeds, to k_hi = sqrt(1500)/T
    pair = make_pair(model=ModelKind.UDW_SCALAR, d=3.0, tba=1.5)
    share, m, d = _member(pair, "m")
    late = _member(make_pair(model=ModelKind.UDW_SCALAR, d=3.0, tba=20.0), "m")[1]
    k_live, (bound,) = harvesting._live_edge(share, [(m, d)])
    assert k_live == math.sqrt(60.0) * math.sqrt(2.0) and 0.0 < bound < 1e-20
    assert harvesting._live_edge(share, [(m, d), (late, d)]) == (k_live, (bound, bound))
    passes = []
    real_panels = specfun._gk15_panels

    def panels(f, lo, hi, *args, **kwargs):
        passes.append(hi.max())
        return real_panels(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(specfun, "_gk15_panels", panels)
    spec = harvesting._spec(share, [(m, d)])
    specfun.integrate_damped_group(spec)
    assert passes[0] == k_live
    passes.clear()
    specfun.integrate_damped_group(replace(spec, live_edge=math.inf, edge_bounds=(), wings=()))
    assert passes[0] == math.sqrt(1500.0)


@pytest.mark.parametrize("a0,T,tba", [
    (1e-200, 1.0, 20.0), (1e-200, 1.0, 0.0), (1e200, 1.0, 20.0), (1e-3, 1e-150, 2e-149),
    (1e-3, 1e150, 1e151), (1e-3, 1.0, 1e200), (1e-3, 1.0, 1e-200)])
def test_edge_bound_is_overflow_safe(a0, T, tba):
    # the bound is formed in logs: where it leaves double range it is inf,
    # with no exception and no RuntimeWarning; it takes the rational <=
    # 9^-6, so at a0 = 1e-200 it is the bound at a0 = 1e-3
    a = AtomSpec(a0=a0, omega=2.0 / T, switching_width=T)
    b = AtomSpec(a0=a0, omega=2.6 / T, position=(0.0, 0.0, 3.0 * T),
                 switching_center=tba, switching_width=T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in ModelKind:
            # M of the pair and of its identical twin, built directly: most
            # of these lie past the range _table accepts
            _, _, p, _, kernel = harvesting._model_params(model)
            members = [(("M", tba, a.omega - b.omega), 0.0), (("M", tba, 0.0), 0.0)]
            k_live, bounds = harvesting._live_edge(("M", p, a0, T, kernel), members)
            assert k_live > 0.0 and all(bound >= 0.0 for bound in bounds)
            if a0 == 1e-200:
                assert (k_live, bounds) == harvesting._live_edge(("M", p, 1e-3, T, kernel),
                                                                 members)
                assert all(bound < math.inf for bound in bounds)


def test_a_member_whose_bound_overflows_runs_on(monkeypatch):
    # at a0 = 1e-200 a bound on the wings, (1.5/a0)^(p+1), leaves double
    # range, so no member may drop them: M and its twin of unequal gaps run
    # on past the live edge, their wings in one ray pass, and their heads
    # stop there with finite bounds on the Gaussian part (which do not see
    # a0), without a RuntimeWarning
    rays = []
    real_rays = specfun._rays

    def spy(*args):
        rays.append(len(args[2]))
        return real_rays(*args)

    monkeypatch.setattr(specfun, "_rays", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = make_pair(model=ModelKind.UDW_DERIVATIVE, a0_omega=2e-200, tba=20.0)
        # past the range _table accepts: the members built directly
        share, d = ("M", 7, pair.atom_a.a0, 1.0, spherical_bessel_j0), pair.separation
        spec = harvesting._spec(share, [(("M", 20.0, 0.0), d), (("M", 20.0, 0.3), d)])
        quads = specfun.integrate_damped_group(spec)
    assert spec.live_edge < math.inf and all(0.0 < b < math.inf for b in spec.edge_bounds)
    assert all(isinstance(q, specfun.QuadratureResult) for q in quads)
    assert rays == [2]


@pytest.mark.parametrize("d", [3.0, 1e-300, 1e300])
@pytest.mark.parametrize("a0,tba", [(1e-200, 20.0), (1e-200, 0.0), (1e200, 20.0), (1e-3, 1e200)])
def test_edge_bound_with_the_spatial_decay_is_overflow_safe(a0, tba, d):
    # the bound takes |kern| <= 1: no exception and no RuntimeWarning at any
    # d, and the same bound at every d; the kernel's decay past the edge is
    # its wave's, along the rays
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in ModelKind:
            _, _, p, _, kernel = harvesting._model_params(model)
            share = ("M", p, a0, 1.0, kernel)
            k_live, bounds = harvesting._live_edge(share, [(("M", tba, -0.6), d),
                                                           (("M", tba, 0.0), d)])
            assert k_live > 0.0 and all(bound >= 0.0 for bound in bounds)
            assert harvesting._live_edge(share, [(("M", tba, -0.6), 0.0),
                                                 (("M", tba, 0.0), 0.0)]) == (k_live, bounds)


@pytest.mark.parametrize("p,kernel", [(3, spherical_bessel_j0_plus_j2),
                                      (5, spherical_bessel_j0), (7, spherical_bessel_j0)])
def test_spatial_kernels_decay_as_the_edge_bound_takes(p, kernel):
    # kern(x) = 2 Re(e^{ix} A(x)), A its wave; 2|A| bounds |kern| and, from
    # x = 5, its magnitude: the envelope of a ray member's integral of |f|
    wave = harvesting._KERN_WAVE[p]
    x = np.concatenate([np.geomspace(1e-3, 1e6, 4001), np.linspace(0.01, 60.0, 6000)])
    value, mag = kernel(x)
    a = wave(x.astype(complex))
    far = x >= 5.0
    assert np.allclose(2.0 * (np.exp(1j * x[far]) * a[far]).real, value[far], rtol=0.0,
                       atol=1e-15 * (2.0 * np.abs(a[far])).max())
    assert np.all(np.abs(value) <= 2.0 * np.abs(a) * (1.0 + 1e-15))
    assert np.all(mag[far] <= 2.0 * np.abs(a[far]) * (1.0 + 1e-15))


def _ray_member(model, d, tba, d_omega):
    # the spec of one M member at T = 1, a0 = 1e-2 (a0 Omega ~ 1e-2, so the
    # rational cutoff is 6e3 for EM and 2e4 for UdW), and its live edge; d
    # None: k_live d just above the rays' threshold
    _, _, p, _, kernel = harvesting._model_params(model)
    share, clock = ("M", p, 1e-2, 1.0, kernel), ("M", tba, d_omega)
    k_live = harvesting._spec(share, [(clock, 1.0)]).live_edge
    d = 1.02 * specfun._RAY_X / k_live if d is None else d
    return harvesting._spec(share, [(clock, d)]), d, k_live


def _real_axis(spec, d, lo, hi):
    # (value, error) of the rule on half-period panels of [lo, hi] of the
    # member's own integrand on the real axis, and its integral of the magnitude
    edges = np.linspace(lo, hi, int(math.ceil((hi - lo) * d / math.pi)) + 1)
    rows = specfun._gk15_panels(spec.integrand, edges[:-1], edges[1:], spec.kernel,
                                list(spec.members), spec.time)[:3]
    return tuple(x.sum() for x in rows)


@pytest.mark.parametrize("model, d, tba, d_omega", [
    (ModelKind.EM_DIPOLE, 2.0, 1.5, 0.0), (ModelKind.UDW_SCALAR, 3.0, 1.0, 0.4),
    (ModelKind.EM_DIPOLE, 2.0, -2.0, -0.5), (ModelKind.UDW_SCALAR, None, 0.5, 0.0),
    (ModelKind.EM_DIPOLE, None, -1.0, 0.3)])
def test_rays_agree_with_a_real_axis_sum(model, d, tba, d_omega):
    # the rays from the live edge against the rule over half periods of the
    # member's own integrand, time kernel and kernel on the real axis, out to
    # the rational cutoff: within the summed errors and the edge's bound of
    # the Gaussian part.  And, by Cauchy's theorem, the rays from k_live are
    # the real axis's [k_live, k_hi] plus the rays from k_hi
    spec, d, k_live = _ray_member(model, d, tba, d_omega)
    k_hi, rays = math.sqrt(1500.0), functools.partial(
        specfun._rays, spec.integrand, spec.wave, list(spec.members), spec.wings, time=spec.time)
    top = np.array([k_hi + 80.0 * math.pi / d])
    value, error, _, _ = rays(np.array([k_live]), top)
    brute, brute_error, _ = _real_axis(spec, d, k_live, spec.cutoff)
    assert abs(value[0] - brute) <= error[0] + brute_error + spec.edge_bounds[0]
    assert abs(value[0]) > 1e3 * (error[0] + brute_error)
    head, head_error, _ = _real_axis(spec, d, k_live, k_hi)
    far, far_error, _, _ = rays(np.array([k_hi]), top)
    assert (abs(head + far[0] - value[0])
            <= head_error + far_error[0] + error[0] + spec.edge_bounds[0])


@pytest.mark.parametrize("params", [
    # scatter_terms pool points 3697 and 7718, and fig5a's (d, t_BA) = (32/3, 16/3) T
    (ModelKind.UDW_DERIVATIVE, 3.3924109053354776, 0.005218682006759862,
     22.676400891851895, 2.695044910399141),
    (ModelKind.UDW_DERIVATIVE, 4.694129795522743, 0.005765700184913115,
     22.942136984275507, 0.5956099511827957),
    (ModelKind.EM_DIPOLE, 12.0, 1e-3, 32.0 / 3.0, 16.0 / 3.0)])
def test_a_ray_members_magnitude_is_at_least_the_real_axis(params, monkeypatch):
    # a ray member's integral of the magnitude is at least the one the real
    # axis gives over [k_live, k_hi + 80 half periods], the span of the head
    # that ran on and the tail it summed, brute force: its error's 50 eps of
    # it is no tighter than theirs
    model, omega, a0_omega, d, tba = params
    rays = []
    real_rays = specfun._rays

    def spy(*args):
        rays.append((args[4], args[5], real_rays(*args)))
        return rays[-1][2]

    monkeypatch.setattr(specfun, "_rays", spy)
    share, clock, d = _member(make_pair(model=model, omega=omega, a0_omega=a0_omega, d=d,
                                        tba=tba), "m")
    spec = harvesting._spec(share, [(clock, d)])
    (quad,) = specfun.integrate_damped_group(spec)
    ((k0, top, (_, error, absint, _)),) = rays
    assert k0[0] == spec.live_edge and top[0] == math.sqrt(1500.0) + 80.0 * math.pi / d
    _, _, brute = _real_axis(spec, d, k0[0], top[0])
    assert absint[0] >= brute > 0.0
    assert quad.abs_error_estimate >= error[0] + specfun._ROUNDOFF * brute


def test_a_group_of_several_times_sums_its_tails_in_one_pass(monkeypatch):
    # 3 times x 3 d: one ray pass for all nine members' wings, and each
    # member agrees with a group of its time alone, with the same
    # evaluations, within its roundoff floor F = 50 eps x its integral of
    # |f| (its error within 200 F, that integral within 8 eps)
    passes = []
    real_rays = specfun._rays

    def spy(*args):
        passes.append(len(args[2]))
        return real_rays(*args)

    monkeypatch.setattr(specfun, "_rays", spy)
    for model in ModelKind:
        _, _, p, _, kernel = harvesting._model_params(model)
        share = ("M", p, 5e-4, 1.0, kernel)
        members = [(("M", t, 0.0), d) for t in (1.0, 3.0, 5.0) for d in (2.0, 6.0, 12.0)]
        passes.clear()
        together = specfun.integrate_damped_group(harvesting._spec(share, members))
        assert passes == [9]
        for j in range(0, 9, 3):
            alone = specfun.integrate_damped_group(harvesting._spec(share, members[j:j + 3]))
            assert all(isinstance(q, specfun.QuadratureResult) for q in alone)
            for q, a in zip(together[j:j + 3], alone):
                floor = specfun._ROUNDOFF * a.abs_integral
                assert q.evaluations == a.evaluations
                assert abs(q.value - a.value) <= floor
                assert abs(q.abs_error_estimate - a.abs_error_estimate) <= 200.0 * floor
                assert abs(q.abs_integral - a.abs_integral) <= 8.0 * np.finfo(float).eps * (
                    a.abs_integral)


def test_fig5a_members_stop_at_the_edge_from_its_delay_10_7(monkeypatch):
    # on fig5a's 10 x 10 map every M member's head stops at the live edge,
    # at every delay (not only from 32/3 T on): the 90 members with d > 0
    # take their wings in one ray pass, the 10 at d = 0 on one run of
    # geometric panels from the edge to the cutoff
    rays, runs = [], []
    real_rays, real_gk = specfun._rays, specfun._adaptive_gk

    def spy(f, wave, members, wings, k0, top, time):
        rays.append((len(members), set(k0.tolist())))
        return real_rays(f, wave, members, wings, k0, top, time)

    def adaptive(f, breakpoints, *args, **kwargs):
        runs.append((breakpoints[0], breakpoints[-1], len(kwargs.get("members") or args[4])))
        return real_gk(f, breakpoints, *args, **kwargs)

    monkeypatch.setattr(specfun, "_rays", spy)
    monkeypatch.setattr(specfun, "_adaptive_gk", adaptive)
    spacetime_map(Axis("d_over_T", 0.0, 24.0, 10), Axis("tba_over_T", 0.0, 24.0, 10),
                  omega_T=12.0)
    k_live = math.sqrt(60.0) * math.sqrt(2.0)
    assert rays == [(90, {k_live})]
    assert runs == [(0.0, k_live, 100), (k_live, 120.0 / (2.0 * 1e-3 / 12.0), 10)]


def test_fig5b_m_group_takes_one_ray_pass(monkeypatch):
    # at t_BA <= 8 T and d >= 4 T every M member of fig5b's map stops at the
    # live edge and takes its wings in one ray pass of all 1600
    edges, rays = [], []
    real_edge, real_rays = harvesting._live_edge, specfun._rays

    def spy(share, members):
        edges.append((len(members), real_edge(share, members)[0]))
        return real_edge(share, members)

    def ray_spy(*args):
        rays.append(len(args[2]))
        return real_rays(*args)

    monkeypatch.setattr(harvesting, "_live_edge", spy)
    monkeypatch.setattr(specfun, "_rays", ray_spy)
    spacetime_map(Axis("d_over_T", 4.0, 14.0, 40), Axis("tba_over_T", 0.0, 8.0, 40), omega_T=12.0,
                  switching=SwitchingKind("cropped_gaussian", 8.0))
    assert edges == [(1600, math.sqrt(60.0) * math.sqrt(2.0))]
    assert rays == [1600]


def _fixed_reference(share, clock, d):
    # a wingless member by _adaptive_gk to rtol 1e-13 on [0, k_hi], from
    # geometric seeds (past the knee) and every fourth of its half periods
    _, p, a0, T, kernel = share
    k_hi, span = math.sqrt(1500.0) / T, d + abs(clock[1])
    seeds = [[0.0, k_hi], np.geomspace(1e-7 * k_hi, k_hi, 50)]
    if span > 0.0:
        seeds.append(np.arange(0.0, k_hi, 4.0 * math.pi / span))
    return specfun._adaptive_gk(harvesting._scale(p, a0), np.unique(np.concatenate(seeds)), 0.0,
                                1e-13, 10 ** 6, kernel, [(clock, d)],
                                time=functools.partial(harvesting._time, T))[0]


def test_fixed_panel_sets_agree_with_the_adaptive_driver(rng):
    # L and L_AB as compute_terms integrates them, against _adaptive_gk at
    # rtol 1e-13: Omega T in [0.5, 40], a0 from 1e-4/Omega to 387 T, d and
    # t_BA in [0, 16] T, and t_BA = 1.2e4 T at Omega T <= 4, where L_AB's
    # set is at its cap (and may refine past it)
    for i in range(45):
        model = list(ModelKind)[i % 3]
        T = rng.uniform(0.5, 2.0)
        omega = rng.uniform(0.5, 4.0 if i >= 39 else 40.0) / T
        a0 = 10.0 ** rng.uniform(math.log10(1e-4 / omega), math.log10(387.0 * T))
        d, tba = T * rng.uniform(0.0, 16.0), T * (1.2e4 if i >= 39 else rng.uniform(-16.0, 16.0))
        _, _, p, _, kernel = harvesting._model_params(model)
        for member in ((("L", p, a0, T, None), ("L", 0.0, omega), 0.0),
                       (("M", p, a0, T, kernel), ("L_AB", tba, omega), d)):
            (quad,), _ = harvesting._quadratures([member], 1e-16, 1e-10)
            if i >= 39 and member[1][0] == "L_AB":
                assert quad.evaluations >= specfun._XGK.size * harvesting._FIXED_PANELS
            value, err, _, _ = _fixed_reference(*member)
            assert isinstance(quad, specfun.QuadratureResult)
            assert abs(quad.value - value) <= quad.abs_error_estimate + err


def test_fixed_panel_sets_follow_the_knee_and_are_capped():
    # uniform panels 1/a0 wide would need ~1,000 panels at a0 = 100 T; near
    # the knee they follow the rational's scale instead, out to panels four
    # half periods wide.  At t_BA = 1e6 T a half period is 3e-6 T: the
    # uniform panels stop at the cap
    def edges(a0, t_ba):
        share = ("M", 5, a0, 1.0, spherical_bessel_j0)
        return harvesting._fixed(share, 1.0, [(("L_AB", t_ba, 1.0), 0.0)])[1]

    at_knee = edges(100.0, 3.0)
    assert at_knee.size < 60 and np.all(np.diff(at_knee) <= 4.0 * math.pi / 3.0 * (1.0 + 1e-12))
    far = edges(1e-3, 1e6)
    assert far.size == harvesting._FIXED_PANELS + 1
    for ks in (at_knee, far):
        assert ks[0] == 0.0 and 0.5 * ks[-1] ** 2 + ks[-1] == pytest.approx(60.0)


@pytest.mark.parametrize("model, omega_T, a0_T", [(ModelKind.UDW_SCALAR, 2.7, 1.26),
                                                  (ModelKind.UDW_SCALAR, 3.0, 1.29),
                                                  (ModelKind.UDW_DERIVATIVE, 1.27, 0.84)])
def test_l_near_its_knee_converges_on_its_fixed_panel_set(model, omega_T, a0_T):
    # at a0 ~ T the knee 3/(2 a0) is about two Gaussian widths out: panels a
    # third of their k wide there, not uniform ones that straddle the
    # rational's order-6 poles, so L meets 1e-16 in the one pass (on uniform
    # panels these three miss it at T = 0.5 and take an _adaptive_gk pass)
    _, _, p, _, _ = harvesting._model_params(model)
    for T in (0.5, 0.6, 0.7, 1.0, 1.6):
        omega, a0 = omega_T / T, a0_T * T
        args = harvesting._fixed(("L", p, a0, T, None), omega, [(("L", 0.0, omega), 0.0)])
        (quad,) = specfun.integrate_fixed_group(*args, 1e-16, 1e-10)
        assert quad.evaluations == specfun._XGK.size * (args[1].size - 1)
        value, err, _, _ = _fixed_reference(("L", p, a0, T, None), ("L", 0.0, omega), 0.0)
        assert abs(quad.value - value) <= quad.abs_error_estimate + err


def test_head_seeds_do_not_grow_with_the_delay():
    # the strided seeds are built strided: at t_BA = 1e6 T the head stalls
    # (its seeds alias the time phase), but without an array of its 1.2e7
    # half periods
    pair = make_pair(omega=1.0, d=3.0, tba=1e6)
    tracemalloc.start()
    try:
        with pytest.raises(specfun.QuadratureConvergenceError):
            compute_terms(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


def test_a_delay_beyond_the_seed_arithmetic_is_rejected_by_name():
    with pytest.raises(ValueError, match="delay"):
        compute_terms(make_pair(omega=1.0, d=3.0, tba=1e200))


def _centred_pair(omega, centre):
    # A and B switched at the same centre, B at (0, 0, 3); EM, a0 Omega = 1e-3
    a = AtomSpec(a0=1e-3 / omega, omega=omega, switching_center=centre)
    return DetectorPair(a, replace(a, position=(0.0, 0.0, 3.0)), ModelKind.EM_DIPOLE)


def _apart(z, t=0.0):
    # A at (0, 0, -z) switched at -t, and B at (0, 0, z) switched at t
    a = AtomSpec(a0=1e-3, omega=1.0, position=(0.0, 0.0, -z), switching_center=-t)
    return DetectorPair(a, replace(a, position=(0.0, 0.0, z), switching_center=t),
                        ModelKind.EM_DIPOLE)


# per point: the pair's builder, and the message of its ValueError, or None
# where its scaled terms are finite
_EDGE_POINTS = {
    "figure point": (lambda: make_pair(), None),
    "gap 40/T": (lambda: make_pair(omega=40.0, d=2.0, tba=1.0), None),
    "M's phase at centres 1e306 T": (lambda: _centred_pair(1e-3, 1e306), None),
    "coupling 1e154": (lambda: make_pair(coupling=1e154), "outside double range"),
    "coupling 1e200": (lambda: make_pair(coupling=1e200), r"coupling 1e\+200 is too large"),
    "M's phase at centres 1e308 T": (lambda: _centred_pair(1.0, 1e308), "M's phase"),
    "M's phase at gap 1e3/T": (lambda: _centred_pair(1e3, 1e306), "M's phase"),
    "B - A past double range": (lambda: _apart(1e308), r"separation B - A .* overflows"),
    "B - A at 1.6e308 T": (lambda: _apart(8e307), r"a separation d of 1.6e\+308 oscillates"),
    "d 1e155 T": (lambda: make_pair(model=ModelKind.UDW_SCALAR, d=1e155),
                  r"a separation d of 1e\+155 oscillates"),
    "gap 1e160/T": (lambda: make_pair(model=ModelKind.UDW_SCALAR, omega=1e160, a0_omega=1e157,
                                      d=1.0), "outside double range"),
    "a0 past its range": (lambda: make_pair(omega=1.0, a0_omega=1e200, d=1.0),
                          "outside the range of the momentum integrals"),
    "t_BA 1e200 T": (lambda: make_pair(omega=1.0, d=3.0, tba=1e200), "delay"),
    "t_B - t_A past double range": (lambda: _apart(1.5, 1e308), "the delay t_B - t_A"),
}


@pytest.mark.parametrize("point", list(_EDGE_POINTS))
def test_every_accepted_pair_is_computed_or_rejected_by_name(point):
    # no OverflowError, no RuntimeWarning and no NaN: finite scaled terms, or
    # a ValueError that names the cause
    build, message = _EDGE_POINTS[point]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if message is not None:
            with pytest.raises(ValueError, match=message):
                compute_terms(build())
            return
        terms = compute_terms(build())
    assert all(map(cmath.isfinite, (terms.l_aa_scaled, terms.l_bb_scaled, terms.m_scaled,
                                    terms.l_ab_scaled, terms.log_scale)))


def test_m_without_a_finite_phase_is_rejected_where_it_is_requested():
    # exp(i Omega (t_A + t_B)) at t_A + t_B = inf: M and every view of it
    # raise; L, which has no such phase, is computed
    pair = _centred_pair(1.0, 1e308)
    for view in (compute_terms, nonlocal_term):
        with pytest.raises(ValueError, match=re.escape("M's phase exp(i Omega (t_A + t_B)) is "
                                                       "not finite at Omega = 1, t_A + t_B = inf")):
            view(pair)
    assert local_term(pair) > 0.0 and cmath.isfinite(cross_noise_term(pair))


def _brute_m_scaled(pair):
    # composite 16-point Gauss-Legendre of M's integrand out to 3x its wing
    # cutoff, on geometric panels and on panels of a quarter spatial period
    table = harvesting._table(harvesting._columns([pair]), ("m",))
    share, clock, d = table["members"][0][0]
    _, p, a0, _, _ = share
    far = 3.0 * harvesting._WING_CUTOFF[p] / (2.0 * a0)
    edges = np.unique(np.concatenate((np.geomspace(1e-8, far, 4000),
                                      np.arange(0.0, far, 0.5 * math.pi / pair.separation))))
    x, w = leggauss(16)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    value, _ = reference_kernels.integrand(share, clock, d)(
        (mid[:, None] + half[:, None] * x).ravel())
    bare = np.sum((value.reshape(-1, 16) @ w) * half)
    return harvesting._evaluate(table, [np.full((1, 1), bare), np.zeros((1, 1)),
                                        np.zeros((1, 1))])[0][0, 0]


@pytest.mark.parametrize("omega", [1.0, 12.0])
@pytest.mark.parametrize("d", [1e-4, 1e-3, 3e-3])
def test_small_separations_match_a_brute_panel_sum(omega, d):
    # at these separations the wings are integrated on the real axis from
    # the live edge to k d = 15, and along rays past it.  At Omega T = 1 no
    # density matrix has these terms (|M| > 1/2), which compute_terms
    # rejects: the engine's M itself
    pair = make_pair(omega=omega, d=d, tba=0.0)
    m_scaled, error, _ = harvesting._harvest(harvesting._columns([pair]), ("m",),
                                             SwitchingKind(), 1e-16, 1e-10)["m"]
    brute = _brute_m_scaled(pair)
    if omega == 1.0:
        expected = {1e-4: 3.40182, 1e-3: 3.10092, 3e-3: 1.67765}[d]
        assert brute.imag == pytest.approx(expected, abs=5e-6)
    assert abs(m_scaled[0] - brute) <= error[0]


@pytest.mark.parametrize("d", [1e-3, 1.5e-3, 2e-3])
def test_derivative_small_separations_converge_to_a_brute_panel_sum(d):
    # the derivative coupling's M stalled here while its wings were summed
    # over real-axis half periods; with the rays it converges, within its
    # error (~1e-12 relative) of the brute sum
    pair = make_pair(model=ModelKind.UDW_DERIVATIVE, omega=1.0, d=d, tba=0.0)
    out = harvesting._harvest(harvesting._columns([pair]), ("m",), SwitchingKind(), 1e-16, 1e-10)
    (m_scaled,), (error,), _ = out["m"]
    assert out["failed"] == [None]
    assert abs(m_scaled - _brute_m_scaled(pair)) <= error


def test_rejects_em_pair_off_the_z_axis():
    a = AtomSpec(a0=1e-3, omega=2.0)
    for position in ((1.5, 0.0, 0.0), (0.0, 0.3, 1.5)):
        b = AtomSpec(a0=1e-3, omega=2.0, position=position)
        with pytest.raises(ValueError, match="z axis"):
            DetectorPair(a, b, ModelKind.EM_DIPOLE)
    # the scalar kernels are isotropic: the direction of B - A is free
    on_axis = AtomSpec(a0=1e-3, omega=2.0, position=(0.0, 0.0, 1.5))
    off_axis = AtomSpec(a0=1e-3, omega=2.0, position=(1.5, 0.0, 0.0))
    assert (nonlocal_term(DetectorPair(a, off_axis, ModelKind.UDW_SCALAR))
            == nonlocal_term(DetectorPair(a, on_axis, ModelKind.UDW_SCALAR)))


def test_compute_terms_names_the_pair_no_state_has():
    # at coupling 1e150 the terms are finite, ~1e292, but L_AA + L_BB > 1
    # (and N^(2) overflows): rejected, as compute and run_grid reject them
    pairs = [make_pair(d=3.0, tba=1.0, omega=1.0), make_pair(d=3.0, tba=1.0, omega=1.0,
                                                              coupling=1e150)]
    with pytest.raises(ValueError, match=r"^pair 0 at d = 3, t_BA = 1, coupling 1e\+150: "
                                         r"L_AA \+ L_BB = .* > 1: .*invalid at this coupling"):
        compute_terms(pairs[1])
    with pytest.raises(ValueError, match=r"^pair 1 at d = 3, t_BA = 1, coupling 1e\+150"):
        harvesting.compute_terms_many(pairs)


@pytest.mark.parametrize("coupling, why", [
    (1e150, r"L_AA \+ L_BB = .* > 1"), (1e152, r"L_AA \+ L_BB = .* > 1"),
    (1e153, r"a term is exp\(inf\) .* outside double range"),
    (1e154, r"a term is exp\(inf\) .* outside double range")])
def test_compute_terms_names_the_pair_at_any_large_coupling(coupling, why):
    # from 1e153 a term relative to exp(log_scale) leaves double range
    # before the state is checked: that error names the pair, its point and
    # its coupling too, alone, in a batch and in a term's view
    pair = make_pair(d=3.0, tba=1.0, omega=1.0, coupling=coupling)
    name = re.escape(f"at d = 3, t_BA = 1, coupling {coupling:g}: ")
    with pytest.raises(ValueError, match=f"^pair 0 {name}{why}"):
        compute_terms(pair)
    with pytest.raises(ValueError, match=f"^pair 1 {name}{why}"):
        harvesting.compute_terms_many([make_pair(d=3.0, tba=1.0, omega=1.0), pair])
    if coupling >= 1e153:
        with pytest.raises(ValueError, match=f"^pair 0 {name}{why}"):
            local_term(pair)


@pytest.mark.parametrize("coupling", [math.inf, math.nan, 0.0, -1.0])
def test_rejects_a_coupling_that_is_not_positive_and_finite(coupling):
    with pytest.raises(ValueError, match="coupling"):
        make_pair(coupling=coupling)


@pytest.mark.parametrize("name,value", [
    ("atol", math.nan), ("atol", -1e-16), ("atol", math.inf),
    ("rtol", math.nan), ("rtol", -1e-10), ("rtol", math.inf)])
def test_term_functions_reject_invalid_tolerances_by_name(name, value):
    pair = make_pair()
    calls = (compute_terms, local_term, nonlocal_term, cross_noise_term,
             lambda pair, **tol: harvesting.compute_terms_many([pair], **tol))
    for call in calls:
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
            call(pair, **{name: value})


def test_rejects_unequal_a0():
    a = AtomSpec(a0=1e-3, omega=2.0)
    b = AtomSpec(a0=2e-3, omega=2.0, position=(0.0, 0.0, 1.5))
    with pytest.raises(ValueError, match="a0"):
        DetectorPair(a, b, ModelKind.UDW_SCALAR)


def test_rejects_unequal_switching_widths():
    a = AtomSpec(a0=1e-3, omega=2.0, switching_width=1.0)
    b = AtomSpec(a0=1e-3, omega=2.0, position=(0.0, 0.0, 1.5),
                 switching_width=1.5)
    with pytest.raises(ValueError, match="switching widths"):
        DetectorPair(a, b, ModelKind.UDW_SCALAR)


def test_compute_terms_rejects_cross_term_of_unequal_gaps():
    a = AtomSpec(a0=1e-3, omega=1.0)
    b = AtomSpec(a0=1e-3, omega=1.3, position=(0.0, 0.0, 1.5))
    pair = DetectorPair(a, b, ModelKind.UDW_SCALAR)
    with pytest.raises(ValueError, match="identical"):
        compute_terms(pair, include_cross=True)
    with pytest.raises(ValueError, match="identical"):
        compute_terms(pair)  # include_cross defaults to True
    assert compute_terms(pair, include_cross=False).l_ab == 0.0


def test_detector_pair_validation():
    a = AtomSpec(a0=1e-3, omega=1.0, orientation=EulerAngles(0.1, 0.0, 0.0))
    b = AtomSpec(a0=1e-3, omega=1.0, position=(0, 0, 1.0))
    with pytest.raises(ValueError):
        DetectorPair(a, b, ModelKind.EM_DIPOLE)
    with pytest.raises(ValueError):
        ModelKind("tensor")


@pytest.mark.parametrize("model", ["em", "udw", "derivative", None])
def test_rejects_a_model_that_is_not_a_model_kind(model):
    # a name is not a ModelKind: it would fall through to the derivative
    # coupling, and "em" would skip the z-axis check
    a = AtomSpec(a0=1e-3, omega=1.0)
    b = AtomSpec(a0=1e-3, omega=1.0, position=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="ModelKind"):
        DetectorPair(a, b, model)
