import cmath
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from vharvest import oracle
from vharvest.angular import EulerAngles, gaunt_integral, polarization_completeness, sph_harm_y
from vharvest.harvesting import negativity_leading
from vharvest.oracle import (OracleReport, negativity_bruteforce, radial_bruteforce,
                             radial_overlap, rotation_bruteforce, run_all,
                             sphere_quadrature, time_integral_bruteforce)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_run_all_passes():
    reports = run_all()
    assert all(r.passed for r in reports)
    assert len(reports) >= 4
    for r in reports:
        assert r.passed == (r.rel_err <= r.tol)
        assert r.evaluations > 0


@pytest.mark.parametrize("rel_err, passed", [
    (0.0, True), (1e-8, True), (2e-8, False), (math.inf, False), (math.nan, False)])
def test_report_passes_within_its_tolerance(rel_err, passed):
    assert OracleReport("any", rel_err, 1e-8, 1).passed is passed


def test_mutation_is_detected():
    for name in ("harvesting.EM_LOCAL_COEFF", "atoms.RADIAL_OVERLAP_L0_COEFF"):
        reports = run_all(mutate=name)
        assert any(not r.passed for r in reports), name
    # the constant is restored afterwards
    assert all(r.passed for r in run_all())


def test_a_closed_form_that_returns_nan_fails_its_oracle(monkeypatch):
    # NaN at one of the oracle's points must not be folded away by max()
    from vharvest import oracle

    real = oracle.radial_overlap

    def nan_at_one_point(l, k, a0):
        return math.nan if l == 2 and math.isclose(a0 * k, 2.0) else real(l, k, a0)

    monkeypatch.setattr(oracle, "radial_overlap", nan_at_one_point)
    report = {r.name: r for r in run_all()}["radial_overlap_closed_vs_quad"]
    assert math.isnan(report.rel_err)
    assert not report.passed


def test_unknown_mutation_rejected():
    with pytest.raises(ValueError):
        run_all(mutate="not.a.constant")


def test_time_bruteforce_k0_elementary():
    # separable Gaussian product at k = 0
    oa, ob, t_a, t_b, T = 1.3, 1.3, 0.0, 1.0, 1.0
    val, err, _ = time_integral_bruteforce(oa, ob, 0.0, t_a, t_b, T)
    want = math.pi * T * T * math.exp(-0.25 * T * T * (oa * oa + ob * ob)) \
        * cmath.exp(1j * (oa * t_a + ob * t_b))
    assert abs(val - want) <= 1e-9 * abs(want)
    assert err <= 1e-8 * abs(want)


def test_time_bruteforce_translation_invariant_magnitude():
    v0, _, _ = time_integral_bruteforce(1.0, 1.0, 1.0, 0.0, 1.0, 1.0)
    vs, _, _ = time_integral_bruteforce(1.0, 1.0, 1.0, 4.0, 5.0, 1.0)
    assert abs(vs) == pytest.approx(abs(v0), rel=1e-8)


def test_time_bruteforce_cropped_switchings():
    # the chi overrides exist for the crop comparison; the cropped value at
    # moderate frequencies is indistinguishable from the full one
    T = 1.0
    sigma = T / math.sqrt(2.0)

    def chi_crop(center):
        def chi(t):
            base = np.exp(-((t - center) / T) ** 2)
            return np.where(np.abs(t - center) > 8.0 * sigma, 0.0, base)
        return chi

    full, _, _ = time_integral_bruteforce(1.0, 1.0, 0.7, 0.0, 1.0, T)
    crop, _, _ = time_integral_bruteforce(1.0, 1.0, 0.7, 0.0, 1.0, T,
                                          chi_a=chi_crop(0.0), chi_b=chi_crop(1.0))
    assert abs(full - crop) <= 1e-12 * abs(full)


def test_sphere_quadrature_normalization():
    assert sphere_quadrature([(2, 1, True), (2, 1)]).real == pytest.approx(
        1.0, rel=1e-12)


def test_sphere_quadrature_selection_rule():
    assert abs(sphere_quadrature([(1, 1), (2, 0), (3, 0)])) <= 1e-14



def test_sphere_quadrature_equals_meshgrid_evaluation():
    # the harmonics broadcast from the grid's axes give the bits of a full
    # meshgrid evaluation
    xg, wg = leggauss(64)
    phi = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
    th, ph = np.meshgrid(np.arccos(xg), phi, indexing="ij")
    rng = np.random.default_rng(7)
    for _ in range(12):
        idx = []
        for _ in range(int(rng.integers(3, 6))):
            l = int(rng.integers(0, 4))
            idx.append((l, int(rng.integers(-l, l + 1)), bool(rng.integers(0, 2))))
        prod = np.ones_like(th, dtype=complex)
        for l, m, conj in idx:
            y = sph_harm_y(l, m, th, ph)
            prod *= np.conj(y) if conj else y
        want = complex((prod * wg[:, None]).sum() * (2.0 * math.pi / 128))
        assert sphere_quadrature(idx) == want, idx

@pytest.mark.parametrize("n_theta, n_phi", [(64, 128), (48, 64)])
def test_cached_grid_harmonics_are_read_only_fresh_grids(n_theta, n_phi):
    # the cache holds m >= 0; m < 0 and the conjugates derive from it with
    # the bits of sph_harm_y on the grid
    theta = np.arccos(leggauss(n_theta)[0])
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    for l in range(4):
        for m in range(-l, l + 1):
            fresh = sph_harm_y(l, m, theta[:, None], phi[None, :])
            if m >= 0:
                cached = oracle._grid_harmonic(l, m, n_theta, n_phi)
                assert not cached.flags.writeable
                assert _same_bits(cached, fresh)
            assert _same_bits(oracle._grid_factor(l, m, False, n_theta, n_phi), fresh)
            assert _same_bits(oracle._grid_factor(l, m, True, n_theta, n_phi), np.conj(fresh))


def test_sphere_quadrature_rejects_an_invalid_harmonic():
    with pytest.raises(ValueError, match="l=1, m=-2"):
        sphere_quadrature([(1, -2), (1, 0), (0, 0)])


def test_radial_bruteforce_k0():
    val, err, _ = radial_bruteforce(0, 0.0, 0.7)
    assert val == pytest.approx(128.0 * math.sqrt(6.0) / 243.0 * 0.7, rel=1e-11)
    val2, _, _ = radial_bruteforce(2, 0.0, 0.7)
    assert abs(val2) <= 1e-14 * 0.7


def test_radial_bruteforce_matches_closed_moderate():
    a0 = 0.7
    for ak in (0.5, 10.0):
        for l in (0, 2):
            closed = radial_overlap(l, ak / a0, a0)
            brute, err, _ = radial_bruteforce(l, ak / a0, a0)
            assert abs(closed - brute) <= max(1e-10 * abs(closed), 10 * err)


def test_radial_bruteforce_ray_path():
    # a0*k > 20 goes through the rotated-ray evaluation
    a0 = 0.7
    for ak in (60.0, 400.0):
        for l in (0, 2):
            closed = radial_overlap(l, ak / a0, a0)
            brute, err, _ = radial_bruteforce(l, ak / a0, a0)
            assert abs(closed - brute) <= max(1e-10 * abs(closed), 10 * err)
            # the ray evaluation resolves these far below the real-axis floor
            assert abs(closed - brute) <= 1e-10 * abs(closed)


def test_rotation_bruteforce_identity():
    got = rotation_bruteforce(2, 1, EulerAngles(), 0.7, 1.1)
    from vharvest.angular import sph_harm_y
    assert got == pytest.approx(sph_harm_y(2, 1, 0.7, 1.1), rel=1e-14)


def test_negativity_bruteforce_known_value():
    # symmetric case: N = |M| - L when positive
    assert negativity_bruteforce(0.3, 0.3, 0.0, 0.5) == pytest.approx(0.2, abs=1e-14)
    assert negativity_bruteforce(0.5, 0.5, 0.0, 0.1) == pytest.approx(0.0, abs=1e-14)


def test_negativity_bruteforce_on_arrays_is_its_cases_bit_for_bit():
    rng = np.random.default_rng(11)
    l_aa, l_bb, am, phm = rng.uniform(0.0, [0.4, 0.4, 0.4, 2 * math.pi], size=(300, 4)).T
    l_ab = rng.uniform(-0.05, 0.05, 300) + 1j * rng.uniform(-0.05, 0.05, 300)
    m = am * np.exp(1j * phm)
    l_ab[:100], m[:100] = 0.0, 1e-3 * m[:100]  # no negative eigenvalue: separable
    got = negativity_bruteforce(l_aa, l_bb, l_ab, m)
    want = [negativity_bruteforce(*case) for case in
            zip(l_aa.tolist(), l_bb.tolist(), l_ab.tolist(), m.tolist())]
    assert all(type(w) is float for w in want)
    assert 0 < sum(w > 0 for w in want) < len(want)  # entangled and separable cases
    assert _same_bits(got, np.array(want))
    # a scalar broadcasts against a stack of any shape
    stack = negativity_bruteforce(l_aa.reshape(3, 100), l_bb.reshape(3, 100), 0.0, m.reshape(3, 100))
    assert stack.shape == (3, 100)
    assert _same_bits(stack.ravel(), np.array([negativity_bruteforce(*case, 0.0, mm) for *case, mm in
                                               zip(l_aa.tolist(), l_bb.tolist(), m.tolist())]))


def _stacked_checks_as_loops(seed: int) -> dict:
    # checks 4, 6 and 9 of run_all one case at a time, drawing from the
    # battery's generator in its order (check 5 draws between 4 and 6)
    rng = np.random.default_rng(seed)
    xg, wg = leggauss(64)
    theta, phi = np.arccos(xg), np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
    gaunt = 0.0
    for n in (3, 4, 5):
        for _ in range(40):
            idx = []
            for _ in range(n):
                l = int(rng.integers(0, 4))
                m = int(rng.integers(-l, l + 1))
                idx.append((l, m, bool(rng.integers(0, 2))))
            prod = np.ones((64, 128), dtype=complex)
            for l, m, conj in idx:
                y = sph_harm_y(l, m, theta[:, None], phi[None, :])
                prod *= np.conj(y) if conj else y
            brute = complex((prod * wg[:, None]).sum() * (2.0 * math.pi / 128))
            gaunt = max(gaunt, abs(gaunt_integral(idx) - brute))
    for _ in range(100):
        rng.uniform(-math.pi, math.pi, 3)
        rng.uniform(0.05, math.pi - 0.05)
        rng.uniform(-math.pi, math.pi)
    polarization = 0.0
    for _ in range(1000):
        k = rng.normal(size=3)
        khat = k / np.linalg.norm(k)
        target = np.eye(3) - np.outer(khat, khat)
        polarization = max(polarization, float(np.max(np.abs(
            polarization_completeness(k) - target))))
    negativity = 0.0
    for _ in range(200):
        l_aa, l_bb = rng.uniform(0.0, 0.4, 2)
        am = rng.uniform(0.0, 0.4)
        phm = rng.uniform(0, 2 * math.pi)
        n2 = negativity_leading(l_aa, l_bb, am)
        brute = negativity_bruteforce(l_aa, l_bb, 0.0, am * cmath.exp(1j * phm))
        negativity = max(negativity, abs(max(0.0, n2) - brute))
    return {"gaunt_vs_sphere_quadrature": (gaunt, 120 * 64 * 128),
            "polarization_completeness": (polarization, 1000),
            "negativity_vs_eigensolver": (negativity, 200)}


@pytest.mark.parametrize("seed", [1234, 7])
def test_stacked_checks_report_the_bits_of_per_case_loops(seed):
    reports = {r.name: r for r in run_all(seed)}
    for name, (rel_err, evaluations) in _stacked_checks_as_loops(seed).items():
        assert float(reports[name].rel_err).hex() == float(rel_err).hex(), name
        assert reports[name].evaluations == evaluations, name
        assert rel_err > 0.0, name


def test_reports_have_stable_names():
    names = [r.name for r in run_all()]
    assert len(set(names)) == len(names)
    assert "time_kernel_closed_vs_2d" in names
    assert "momentum_kernels_vs_reduction" in names
