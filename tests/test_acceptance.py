"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances are fixed here, not tuned at runtime.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every test is independent and finishes well under five minutes at
desk scale.
"""

import itertools
import math

import numpy as np
import pytest
import reference_kernels
from scipy.special import spherical_jn

from vharvest.angular import EulerAngles, polarization_completeness, rotate_harmonic
from vharvest.angular import gaunt_integral
from vharvest.atoms import SwitchingKind
from vharvest.cli import main as cli_main
from vharvest.harvesting import ModelKind, compute_terms, nonlocal_term, positivity_report
from vharvest.oracle import (MUTABLE_CONSTANTS, em_decomposition_identity,
                             radial_bruteforce, radial_overlap, rotation_bruteforce,
                             run_all, sphere_quadrature, time_integral_bruteforce,
                             time_integral_closed, wavefunction_overlap_log10)
from vharvest.specfun import spherical_bessel_j0
from vharvest.survey import (Axis, harvestability_map, model_comparison,
                             pair_from_params, spacetime_map)

SIGMA = 1.0 / math.sqrt(2.0)


def report(num, text):
    print(f"\nACCEPTANCE {num:2d} PASS: {text}")


def test_criterion_01_em_decomposition_identity():
    """identity-part minus dyadic-part reproduces the final EM kernels."""
    a0 = 0.003
    d = 2.5
    worst_l = 0.0
    worst_m = 0.0
    for u in np.geomspace(1e-8, 1e8, 100):
        k = math.sqrt(u) / a0
        dec = em_decomposition_identity(k, a0, d=d)
        target_l = 49152.0 * (4.0 * u + 9.0) ** 2
        worst_l = max(worst_l, abs(dec.l_identity - dec.l_dyadic - target_l) / target_l)
        kern = spherical_bessel_j0(k * d)[0] + spherical_jn(2, k * d)
        worst_m = max(worst_m, abs(dec.m_total - target_l * kern) / target_l)
    assert worst_l <= 1e-12
    assert worst_m <= 1e-12
    report(1, f"decomposition identity holds to {max(worst_l, worst_m):.2e} "
              "(local and nonlocal kernels)")


def test_criterion_02_time_kernel_oracle():
    """closed Gaussian time integral vs direct 2D quadrature, 10x10 grid.

    At the grid corners (Tk and t_BA both large) the integral sits thirty
    orders below the O(1) oscillatory integrand, beyond any double-precision
    quadrature; there the comparison floor is 100 eps times the integrand
    scale pi T^2.  Wherever the value is resolvable the 1e-8 relative
    criterion applies unchanged.
    """
    T = 1.0
    omega = 1.5
    scale = math.pi * T * T
    floor = 100.0 * np.finfo(float).eps * scale
    worst_rel = 0.0
    worst_abs = 0.0
    resolvable = 0
    for tk in np.linspace(0.0, 20.0, 10):
        for tba in np.linspace(0.0, 12.0, 10):
            closed, _ = time_integral_closed(omega, omega, tk / T, 0.0, tba, T)
            brute, _, _ = time_integral_bruteforce(omega, omega, tk / T, 0.0, tba, T)
            diff = abs(closed - brute)
            assert diff <= max(1e-8 * abs(brute), floor)
            if abs(brute) >= 1e-10 * scale:
                worst_rel = max(worst_rel, diff / abs(brute))
                resolvable += 1
            worst_abs = max(worst_abs, diff / scale)
    closed, _ = time_integral_closed(1.2, 2.1, 3.0, 0.0, 2.5, T)
    brute, _, _ = time_integral_bruteforce(1.2, 2.1, 3.0, 0.0, 2.5, T)
    worst_rel = max(worst_rel, abs(closed - brute) / abs(brute))
    assert worst_rel <= 1e-8
    assert resolvable >= 60
    report(2, f"time kernel matches 2D brute force: rel {worst_rel:.2e} on "
              f"{resolvable + 1} resolvable points, {worst_abs:.2e} of the "
              "integrand scale everywhere")


def test_criterion_03_radial_oracle():
    """closed radial overlaps vs quadrature over 50 log-spaced momenta."""
    a0 = 0.7
    scale0 = radial_overlap(0, 0.0, a0)
    worst = 0.0
    for ak in np.geomspace(1e-3, 1e3, 50):
        k = ak / a0
        for l in (0, 2):
            closed = radial_overlap(l, k, a0)
            brute, err, _ = radial_bruteforce(l, k, a0)
            tol = max(1e-10 * abs(closed), 10.0 * err)
            assert abs(closed - brute) <= tol
            assert abs(closed - brute) <= 1e-10 * scale0
            if abs(closed) > 0:
                worst = max(worst, abs(closed - brute) / max(abs(closed), 10 * err))
    assert radial_overlap(0, 0.0, a0) == pytest.approx(
        128.0 * math.sqrt(6.0) / 243.0 * a0, rel=1e-11)
    report(3, f"radial overlaps match quadrature (worst conditioned rel "
              f"{worst:.2e}); k=0 value exact to 1e-11")


def test_criterion_04_angular_oracles():
    """Gaunt vs sphere quadrature, D rotation vs matrix oracle,
    polarization completeness."""
    rng = np.random.default_rng(7)
    # every 3-harmonic l-combination with l <= 3 and compatible m
    cases = 0
    worst = 0.0
    for l1, l2, l3 in itertools.product(range(4), repeat=3):
        for m1 in range(-l1, l1 + 1):
            for m2 in range(-l2, l2 + 1):
                m3 = -(m1 + m2)
                if abs(m3) > l3:
                    continue
                idx = [(l1, m1), (l2, m2), (l3, m3)]
                diff = abs(gaunt_integral(idx)
                           - sphere_quadrature(idx, 48, 64).real)
                worst = max(worst, diff)
                cases += 1
    # sampled 4- and 5-harmonic products
    for n in (4, 5):
        for _ in range(60):
            idx = [(int(l), int(rng.integers(-l, l + 1)), bool(rng.integers(0, 2)))
                   for l in rng.integers(0, 4, n)]
            diff = abs(gaunt_integral(idx) - sphere_quadrature(idx, 48, 64).real)
            worst = max(worst, diff)
            cases += 1
    assert worst <= 1e-10

    worst_rot = 0.0
    for _ in range(100):
        ang = EulerAngles(*rng.uniform(-math.pi, math.pi, 3))
        th = float(rng.uniform(0.05, math.pi - 0.05))
        ph = float(rng.uniform(-math.pi, math.pi))
        for l in (1, 2):
            for m in range(-l, l + 1):
                worst_rot = max(worst_rot, abs(
                    rotate_harmonic(l, m, ang, th, ph)
                    - rotation_bruteforce(l, m, ang, th, ph)))
    assert worst_rot <= 1e-12

    worst_pol = 0.0
    for _ in range(1000):
        k = rng.normal(size=3)
        khat = k / np.linalg.norm(k)
        worst_pol = max(worst_pol, float(np.max(np.abs(
            polarization_completeness(k) - (np.eye(3) - np.outer(khat, khat))))))
    assert worst_pol <= 1e-14
    report(4, f"{cases} Gaunt cases to {worst:.2e}; rotation to "
              f"{worst_rot:.2e}; polarization to {worst_pol:.2e}")


def test_criterion_05_orientation_law():
    """|M|(theta) = |M|(0) |cos theta|; N(pi/2) = 0 exactly."""
    fixed = {"a0_omega": 1e-3, "omega_T": 1.0, "d_over_T": 1.0,
             "tba_over_T": 1.0}
    base = abs(nonlocal_term(pair_from_params(fixed, ModelKind.EM_DIPOLE)))
    worst = 0.0
    for theta in (math.pi / 6.0, math.pi / 4.0, math.pi / 3.0):
        got = abs(nonlocal_term(pair_from_params(
            dict(fixed, theta=theta), ModelKind.EM_DIPOLE)))
        worst = max(worst, abs(got - base * abs(math.cos(theta)))
                    / (base * abs(math.cos(theta))))
    assert worst <= 1e-9
    perp = compute_terms(pair_from_params(dict(fixed, theta=math.pi / 2.0),
                                          ModelKind.EM_DIPOLE),
                         include_cross=False)
    assert perp.negativity == 0.0
    report(5, f"|cos theta| factorization to {worst:.2e}; "
              "N(pi/2) clamps to exactly 0")


def test_criterion_06_positivity_suite():
    """Appendix positivity over a 5x5 (d, t_BA) grid at Omega T = 12."""
    for d in np.linspace(2.0, 14.0, 5):
        for tba in np.linspace(0.0, 12.0, 5):
            pair = pair_from_params({"a0_omega": 1e-3, "omega_T": 12.0,
                                     "d_over_T": float(d),
                                     "tba_over_T": float(tba)},
                                    ModelKind.EM_DIPOLE)
            terms = compute_terms(pair, include_cross=True)
            assert terms.l_aa_scaled >= 0.0
            assert terms.l_bb_scaled >= 0.0
            rep = positivity_report(terms)
            assert rep.e3 >= -rep.tolerance
            assert rep.e4 >= -rep.tolerance
            assert rep.cross_inequality >= -rep.tolerance
            assert rep.passed
    report(6, "L >= 0, L_AA L_BB >= |L_AB|^2 and E3, E4 >= -10*err on the "
              "5x5 grid at Omega T = 12")


def test_criterion_07_spacelike_harvesting():
    """Harvesting beyond 9 sigma with cropped switching; crop-vs-full
    difference below the double-precision zero threshold.

    The closed forms carry the factor exp(-T^2 Omega^2/2) ~ 5e-32 at
    Omega T = 12, far below double resolution relative to the O(1) time
    integrands; the footnote's check is therefore implemented as
    |J_crop - J_full| <= 1e-15 * (the integrand's natural scale pi T^2),
    with both sides computed by the same direct quadrature.
    """
    omega_T = 12.0
    cropped = SwitchingKind("cropped_gaussian", 8.0)
    res = spacetime_map(Axis("d_over_T", 4.0, 14.0, 11),
                        Axis("tba_over_T", 0.0, 8.0, 9), omega_T=omega_T,
                        switching=cropped, threads=2)
    found = []
    for row in res.rows:
        tba, d = row.coords
        if (d - tba) / SIGMA >= 9.0 and row.harvestable and row.n2 > 0:
            found.append((tba, d, (d - tba) / SIGMA))
    assert found, "no harvestable grid point at >= 9 sigma"

    # crop-vs-full on the time integrals at the most spacelike found point
    tba, d, sig = max(found, key=lambda x: x[2])
    T = 1.0

    def chi_crop(center):
        def chi(t):
            base = np.exp(-((t - center) / T) ** 2)
            return np.where(np.abs(t - center) > 8.0 * SIGMA * T, 0.0, base)
        return chi

    scale = math.pi * T * T  # L1 of the double time integrand
    worst = 0.0
    for k in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0, 20.0):
        full, _, _ = time_integral_bruteforce(omega_T, omega_T, k, 0.0, tba, T)
        crop, _, _ = time_integral_bruteforce(omega_T, omega_T, k, 0.0, tba, T,
                                              chi_a=chi_crop(0.0),
                                              chi_b=chi_crop(tba))
        worst = max(worst, abs(full - crop) / scale)
    assert worst <= 1e-15
    report(7, f"N > 10*err at {sig:.1f} sigma outside light contact "
              f"(t_BA={tba:.1f}); crop-vs-full difference {worst:.2e} "
              "of the double-precision scale")


def test_criterion_08_overlap_bound():
    """Wavefunction overlap at d = 1e4 a0 vs the harvested negativity."""
    a0 = 1e-3 / 12.0
    log_overlap = wavefunction_overlap_log10(1e4 * a0, a0)
    assert abs(log_overlap - (-4343.0)) <= 0.01 * 4343.0
    # harvested N at the 9-sigma point sits thousands of orders above it
    pair = pair_from_params({"a0_omega": 1e-3, "omega_T": 12.0,
                             "d_over_T": 2.0 + 9.0 * SIGMA, "tba_over_T": 2.0},
                            ModelKind.EM_DIPOLE)
    terms = compute_terms(pair, switching=SwitchingKind("cropped_gaussian", 8.0),
                          include_cross=False)
    assert terms.negativity2_scaled > 0
    log_n = (terms.log_scale + math.log(terms.negativity2_scaled)) / math.log(10.0)
    assert log_n - log_overlap > 1000.0
    report(8, f"log10 overlap(1e4 a0) = {log_overlap:.1f} (within 1% of "
              f"-4343); harvested log10 N = {log_n:.1f}, "
              f"{log_n - log_overlap:.0f} orders above")


def test_criterion_09_model_comparison():
    """EM harvesting is stronger inside the lightcone but reaches less far."""
    res = model_comparison(Axis("d_over_T", 0.5, 28.0, 56), omega_T=13.0,
                           tba_over_T=10.0, threads=2)
    max_d = {}
    for i, name in ((1, "em"), (2, "udw"), (3, "derivative")):
        max_d[name] = max((r[0] for r in res.rows if r[i].n > 0), default=None)
    assert max_d["em"] is not None and max_d["udw"] is not None
    assert max_d["em"] < max_d["udw"]
    inside = [r for r in res.rows
              if abs(r[0] - 10.0) < 8.0 * SIGMA and r[1].n > 0 and r[2].n > 0]
    assert inside
    assert all(r[1].n > r[2].n for r in inside)
    report(9, f"EM reach {max_d['em']:.1f} < UdW reach {max_d['udw']:.1f}; "
              f"EM stronger at all {len(inside)} lightcone points")


def test_criterion_10_harvestability_map():
    """Spacelike harvesting appears at large gaps; the minimal harvestable
    gap grows with distance beyond light contact."""
    tba = 10.0
    n_om, n_d = 20, 20
    res = harvestability_map(Axis("omega_T", 0.5, 40.0, n_om),
                             Axis("d_over_T", 0.5, 40.0, n_d),
                             tba_over_T=tba, threads=2)
    omegas = Axis("omega_T", 0.5, 40.0, n_om).values()
    ds = Axis("d_over_T", 0.5, 40.0, n_d).values()
    chan = np.array([r.harvestable for r in res.rows]).reshape(n_om, n_d)
    # harvesting exists far outside the lightcone
    far = ds > tba + 8.0 * SIGMA
    assert chan[:, far].any()
    # monotone in Omega: once harvestable, larger gaps stay harvestable
    for j, d in enumerate(ds):
        if d > tba and chan[:, j].any():
            first = int(np.argmax(chan[:, j]))
            assert chan[first:, j].all()
    # minimal harvestable gap nondecreasing with distance past light contact
    mins = []
    for j, d in enumerate(ds):
        if d < tba:
            continue
        col = chan[:, j]
        mins.append(float(omegas[np.argmax(col)]) if col.any() else math.inf)
    assert all(b >= a - 1e-12 for a, b in zip(mins, mins[1:]))
    report(10, f"spacelike cells harvestable: {int(chan[:, far].sum())}; "
               "threshold gap nondecreasing beyond light contact")


def test_criterion_11_derivative_scalar_ratio():
    """The derivative coupling inserts exactly k^2 into the integrands."""
    from vharvest import harvesting

    def integrand(pair, name):
        # the value of one term's integrand, its member in the pair's table
        member = harvesting._table(harvesting._columns([pair]), (name,))["members"][0][0]
        return lambda k: reference_kernels.integrand(*member)(k)[0]

    pair_sc = pair_from_params({"a0_omega": 1e-3, "omega_T": 2.0,
                                "d_over_T": 3.0, "tba_over_T": 1.0},
                               ModelKind.UDW_SCALAR)
    pair_dv = pair_from_params({"a0_omega": 1e-3, "omega_T": 2.0,
                                "d_over_T": 3.0, "tba_over_T": 1.0},
                               ModelKind.UDW_DERIVATIVE)
    ks = np.geomspace(0.01, 25.0, 300)  # past k ~ 37 the Gaussian underflows
    f_sc = integrand(pair_sc, "l_aa")(ks)
    f_dv = integrand(pair_dv, "l_aa")(ks)
    g_sc = integrand(pair_sc, "m")(ks)
    g_dv = integrand(pair_dv, "m")(ks)
    mask = np.abs(g_sc) > 0
    assert f_sc.min() > 0 and mask.sum() >= 290  # j0 zeros are measure zero
    worst = max(float(np.max(np.abs(f_dv / f_sc - ks * ks) / (ks * ks))),
                float(np.max(np.abs(g_dv[mask] / g_sc[mask] - ks[mask] ** 2)
                             / ks[mask] ** 2)))
    assert worst <= 1e-12
    report(11, f"derivative/scalar integrand ratio equals k^2 to {worst:.2e}")


def test_criterion_12_selfcheck_gate(capsys):
    """selfcheck passes clean and every constant mutation trips it."""
    assert all(r.passed for r in run_all())
    missed = []
    for name in MUTABLE_CONSTANTS:
        if all(r.passed for r in run_all(mutate=name)):
            missed.append(name)
    assert not missed, f"mutations not detected: {missed}"
    assert cli_main(["selfcheck"]) == 0
    assert cli_main(["selfcheck", "--mutate",
                     "harvesting.SCALAR_LOCAL_COEFF"]) == 1
    capsys.readouterr()
    report(12, f"selfcheck exits 0; all {len(MUTABLE_CONSTANTS)} "
               "single-constant mutations exit 1")
