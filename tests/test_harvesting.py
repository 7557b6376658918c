import cmath
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from vharvest import harvesting, specfun
from vharvest.angular import EulerAngles
from vharvest.atoms import AtomSpec, SwitchingKind
from vharvest.harvesting import (DetectorPair, HarvestTerms, ModelKind,
                                 assemble_state, compute_terms,
                                 cross_noise_term, em_decomposition_identity,
                                 local_integrand, local_term,
                                 negativity_leading, nonlocal_integrand,
                                 nonlocal_term, positivity_report,
                                 time_integral_closed)
from vharvest.oracle import negativity_bruteforce, time_integral_bruteforce
from vharvest.specfun import scaled_time_kernel, spherical_bessel_j


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
    a = pair_sc.atom_a
    f_sc = local_integrand(ModelKind.UDW_SCALAR, a.a0, a.omega, 1.0)
    f_dv = local_integrand(ModelKind.UDW_DERIVATIVE, a.a0, a.omega, 1.0)
    g_sc = nonlocal_integrand(pair_sc)
    g_dv = nonlocal_integrand(pair_dv)
    ks = rng.uniform(0.05, 30.0, 200)
    assert np.max(np.abs(f_dv(ks) / f_sc(ks) - ks * ks) / (ks * ks)) <= 1e-12
    assert np.max(np.abs(g_dv(ks) / g_sc(ks) - ks * ks) / (ks * ks)) <= 1e-12


def test_local_memo_hit_on_repeated_terms():
    memo = harvesting._local_quadrature
    memo.cache_clear()
    pair = make_pair(omega=12.0, d=11.0, tba=10.0)
    first = compute_terms(pair, include_cross=False)
    assert memo.cache_info().misses == 1 and memo.cache_info().hits == 0
    # another point of the same grid (new d and t_BA) shares L
    again = compute_terms(make_pair(omega=12.0, d=3.0, tba=0.5), include_cross=False)
    assert memo.cache_info().misses == 1 and memo.cache_info().hits == 1
    assert again.l_aa == first.l_aa
    assert again.quadrature_errors["l_aa"] == first.quadrature_errors["l_aa"]


def test_local_memo_loosened_retry_is_a_separate_key():
    # survey._eval_point retries at atol and rtol x 1e3; that must not reuse
    # the tight-tolerance entry or vice versa
    memo = harvesting._local_quadrature
    memo.cache_clear()
    pair = make_pair(omega=5.0)
    compute_terms(pair, include_cross=False, atol=1e-16, rtol=1e-10)
    compute_terms(pair, include_cross=False, atol=1e-13, rtol=1e-7)
    info = memo.cache_info()
    assert info.misses == 2 and info.hits == 0 and info.currsize == 2
    assert info.maxsize is not None  # bounded


def test_local_memo_cannot_mask_a_mutated_coefficient(monkeypatch):
    memo = harvesting._local_quadrature
    pair = make_pair(omega=12.0)
    compute_terms(pair, include_cross=False)
    base = compute_terms(pair, include_cross=False)
    hits = memo.cache_info().hits
    monkeypatch.setattr(harvesting, "EM_LOCAL_COEFF",
                        harvesting.EM_LOCAL_COEFF * (1.0 + 1e-6))
    mutated = compute_terms(pair, include_cross=False)
    assert memo.cache_info().hits == hits + 1  # served from the memo
    assert mutated.l_aa / base.l_aa - 1.0 == pytest.approx(1e-6, rel=1e-8)
    assert local_term(pair) / base.l_aa - 1.0 == pytest.approx(1e-6, rel=1e-8)
    assert mutated.m == base.m


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
        term = harvesting._nonlocal(pair)
        k = np.concatenate((rng.uniform(0.0, 40.0, 150), rng.uniform(40.0, 5e3, 60)))
        time = np.array([complex(_time_integral_mp(mp, a.omega, b.omega, kk, 0.0, 6.0, 1.0)
                                 / scale) for kk in k])
        want = k ** term.p * term.kernel(k * 4.0)[0] * time / (4.0 * (a0 * k) ** 2 + 9.0) ** 6
        got, mag = harvesting._spec(term).integrand(k)
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
            weight = k ** 5 * spherical_bessel_j(0, k * d) \
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
    state = assemble_state(_terms(0.3, 0.3, 0.5 + 0.0j))
    assert state.negativity2 == pytest.approx(0.2, abs=1e-15)
    assert state.negativity == pytest.approx(0.2, abs=1e-15)
    assert state.concurrence == pytest.approx(0.4, abs=1e-15)


def test_negativity_clamped():
    state = assemble_state(_terms(0.5, 0.5, 0.1 + 0.0j))
    assert state.negativity2 == pytest.approx(-0.4, abs=1e-15)
    assert state.negativity == 0.0
    assert state.concurrence == 0.0


def test_negativity_asymmetric_vs_eigensolver():
    l_aa, l_bb, am = 0.2, 0.4, 0.35
    n2 = negativity_leading(l_aa, l_bb, am)
    want = -0.5 * (0.6 - math.sqrt(0.04 + 4 * 0.1225))
    assert n2 == pytest.approx(want, abs=1e-15)
    brute = negativity_bruteforce(l_aa, l_bb, 0.0, am * cmath.exp(0.7j))
    assert max(0.0, n2) == pytest.approx(brute, abs=1e-13)


def test_state_shape_and_trace():
    terms = _terms(0.1, 0.2, 0.05 + 0.02j, l_ab=0.01 - 0.03j)
    state = assemble_state(terms)
    rho = state.rho
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
        kern = spherical_bessel_j(0, k * d) + spherical_bessel_j(2, k * d)
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


def test_cross_term_sums_no_tail(monkeypatch):
    # the Gaussian of L_AB is exactly 0.0 past the head's cutoff k_hi
    def no_tail(*args, **kwargs):
        raise AssertionError("L_AB summed a tail past k_hi")

    monkeypatch.setattr(specfun, "_oscillatory_tail", no_tail)
    for d, tba in ((3.0, 1.5), (3.0, 0.0), (0.0, 1.5)):
        assert math.isfinite(abs(cross_noise_term(make_pair(d=d, tba=tba))))


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
        ModelKind.from_name("tensor")
