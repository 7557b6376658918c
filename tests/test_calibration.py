"""Calibration of the reported errors.

Per node, every integrand factor lies within its rounding bound, 50 eps x
magnitude, of a 40-digit value.  Per integral, a rerun at rtol x 1e-2 with
finer rays for the wings moves each result by less than its reported error,
and so does a rerun on another Gauss-Kronrod rule (QUADPACK's dqk15 on half
periods) at rtol 1e-12.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss

from vharvest import harvesting, specfun
from vharvest.atoms import AtomSpec
from vharvest.harvesting import DetectorPair, ModelKind, compute_terms, compute_terms_many
from vharvest.oracle import time_integral_closed
from vharvest.specfun import (scaled_time_kernel, spherical_bessel_j0,
                              spherical_bessel_j0_plus_j2)
from vharvest.survey import pair_from_params

# (model, Omega_A T, a0 Omega_A, d/T, t_BA/T, Omega_B/Omega_A) of benchmark
# pool pairs whose errors the quadrature alone used to understate: unequal
# gaps pairs 700 and 138, identical atoms pair 1675; and unequal gaps pairs
# 434 and 971, harvestable only if the time kernel cancels nothing of size
# (k T)^2/2 per node
POOL_PAIRS = {
    "unequal_gaps_700": (ModelKind.UDW_DERIVATIVE, 5.246313666685258,
                         0.00028216506471527027, 1.0651635785834017,
                         2.087694158562566, 0.9910860996475199),
    "unequal_gaps_138": (ModelKind.UDW_DERIVATIVE, 1.004105720865806,
                         0.0002852014162694454, 0.7863653420007408,
                         2.3899231511880137, 0.8831981889642373),
    "scatter_terms_1675": (ModelKind.UDW_DERIVATIVE, 14.394312299716416,
                           0.003006901787056098, 9.908130998697057,
                           1.9059613193995233, 1.0),
    "unequal_gaps_434": (ModelKind.UDW_SCALAR, 9.501372550581607,
                         0.004609812932891083, 8.277566709915678,
                         2.7283510177060353, 0.8628791332454149),
    "unequal_gaps_971": (ModelKind.UDW_SCALAR, 2.960472511161287,
                         0.003184339839375557, 1.1412331709632388,
                         0.6396507138900727, 0.8259846887798095),
}


def make_pair(model, omega_T, a0_omega, d, tba, ratio):
    a0 = a0_omega / omega_T
    a = AtomSpec(a0=a0, omega=omega_T)
    b = AtomSpec(a0=a0, omega=omega_T * ratio, position=(0.0, 0.0, d),
                 switching_center=tba)
    return DetectorPair(a, b, model)


def assert_within_bound(value, magnitude, ref):
    assert np.all(np.abs(value - ref) <= specfun._ROUNDOFF * magnitude)


# ----------------------------------------------------------------------------
# per node, against mpmath
# ----------------------------------------------------------------------------

def k_nodes(T):
    # 0 to k_hi, where the Gaussian dies, and out into the algebraic wings
    k_hi = math.sqrt(specfun._GAUSS_DEAD / (0.5 * T * T))
    return np.concatenate([np.linspace(0.0, k_hi, 40)[1:], np.geomspace(k_hi, 30.0 * k_hi, 10)])


@pytest.mark.parametrize("T", [0.5, 1.0])
@pytest.mark.parametrize("t_ba", [0.0, 0.5 * math.sqrt(2.0), 2.087694158562566, 24.0,
                                  1e-3 * math.sqrt(2.0), 0.05 * math.sqrt(2.0)])
def test_time_kernel_within_its_bound(T, t_ba):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    # the wofz region b ~ 5.9, a ~ 0.5 joins the nodes at t_BA = T/sqrt(2),
    # and b in [6.5, 8] at a = 0, 1e-3 and 0.05 (at T = 1) the edge |z| = 7
    # where the asymptotic series takes over from wofz, which is off by up
    # to ~110 eps just below it
    k = np.concatenate([k_nodes(T), math.sqrt(2.0) / T * np.linspace(5.0, 7.0, 21),
                        math.sqrt(2.0) / T * np.linspace(6.5, 8.0, 31)])
    value, mag = scaled_time_kernel(k, t_ba, T, d_omega=0.0)

    def exact(kk):
        kk, t, TT = mp.mpf(kk), mp.mpf(t_ba), mp.mpf(T)
        E = lambda s: mp.exp(1j * kk * s) * mp.erfc((1j * TT * TT * kk + s) / (mp.sqrt(2) * TT))
        return complex(mp.exp(-TT * TT * kk * kk / 2) * (E(t) + E(-t)))

    assert_within_bound(value, mag, np.array([exact(kk) for kk in k]))


@pytest.mark.parametrize("oa, ob, t_a, t_b, T", [
    (5.246313666685258, 5.1995485494425715, 0.0, 2.087694158562566, 1.0),
    (1.004105720865806, 0.8868243541973098, 0.0, 2.3899231511880137, 1.0),
    (3.0, 2.4, 1.3, -4.0, 0.8),        # t_a != 0, t_BA < 0
    (12.0, 14.0, 2.0, 2.0, 0.8),       # t_BA = 0
    (15.0, 12.0, 0.0, 24.0, 1.0),
])
def test_time_integral_closed_within_its_bound(oa, ob, t_a, t_b, T):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    k = k_nodes(T)
    value, mag = time_integral_closed(oa, ob, k, t_a, t_b, T)

    def exact(kk):
        Oa, Ob, kk, ta, tb, TT = map(mp.mpf, (oa, ob, kk, t_a, t_b, T))
        tba, dO = tb - ta, Oa - Ob
        c = TT * TT * dO + 2j * tba
        x = ((-2 * (kk * TT) ** 2 + 2 * kk * c - (TT * Oa) ** 2 - (TT * Ob) ** 2) / 4
             + 1j * (tb * (Oa + Ob) - tba * Oa))
        den = 2 * mp.sqrt(2) * TT
        z1 = (2 * tba + 1j * TT * TT * (2 * kk - dO)) / den
        z2 = (-2 * tba + 1j * TT * TT * (2 * kk + dO)) / den
        return complex(mp.pi * TT * TT / 2 * (mp.exp(x) * mp.erfc(z1)
                                              + mp.exp(x - kk * c) * mp.erfc(z2)))

    assert_within_bound(value, mag, np.array([exact(kk) for kk in k]))


def test_spatial_kernels_within_their_bounds():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    # both sides of the x = 5 switch, out to k d of the tail panels
    x = np.concatenate([np.linspace(0.0, 12.0, 241), np.geomspace(5.0, 3000.0, 200)])
    sin_x = [mp.sin(mp.mpf(v)) / mp.mpf(v) if v else mp.mpf(1) for v in x]
    j0 = np.array([float(s) for s in sin_x])
    j0_j2 = np.array([float(3 * (s - mp.cos(mp.mpf(v))) / mp.mpf(v) ** 2) if v else 1.0
                      for s, v in zip(sin_x, x)])
    assert_within_bound(*spherical_bessel_j0(x), j0)
    assert_within_bound(*spherical_bessel_j0_plus_j2(x), j0_j2)


# ----------------------------------------------------------------------------
# per integral: a tighter rerun lands inside the reported error
# ----------------------------------------------------------------------------

def rerun_pairs():
    rng = np.random.default_rng(20240817)
    pairs = list(POOL_PAIRS.values())
    for _ in range(6):
        pairs.append((ModelKind(rng.choice([m.value for m in ModelKind])),
                      rng.uniform(0.5, 15.0), 10.0 ** rng.uniform(-4.0, -2.0),
                      rng.uniform(0.5, 25.0), rng.uniform(0.5, 25.0),
                      float(rng.choice([1.0, rng.uniform(0.8, 1.25)]))))
    return pairs


def finer_rays(monkeypatch):
    # the rays' Gauss-Laguerre sum on 64 nodes, checked against 40, in
    # place of 28 and 16
    (u64, w64), (u40, w40) = laggauss(64), laggauss(40)
    weights = np.zeros((2, 104))
    weights[0, :64], weights[1, 64:] = w64, w40
    monkeypatch.setattr(specfun, "_RAY_Y", 1j * np.concatenate((u64, u40)))
    monkeypatch.setattr(specfun, "_RAY_W", weights)


@pytest.mark.parametrize("params", rerun_pairs())
def test_tighter_rerun_lands_inside_the_error(params, monkeypatch):
    pair = make_pair(*params)
    terms = compute_terms(pair, include_cross=pair.identical)
    # the wings' rays on more nodes: no rule of the first run is reused
    finer_rays(monkeypatch)
    tight = compute_terms(pair, include_cross=pair.identical, rtol=1e-12)
    errors = terms.quadrature_errors
    assert (abs(tight.negativity2_scaled - terms.negativity2_scaled)
            < terms.negativity2_error_scaled())
    assert abs(tight.m_scaled - terms.m_scaled) < errors["m"]
    assert abs(tight.l_aa_scaled - terms.l_aa_scaled) < errors["l_aa"]
    if pair.identical:
        assert abs(tight.l_ab_scaled - terms.l_ab_scaled) < errors["l_ab"]


@pytest.mark.parametrize("name", ["unequal_gaps_700", "unequal_gaps_434", "unequal_gaps_971"])
def test_unequal_gap_pairs_are_harvestable(name):
    # n2 stands above ten times its error only if the time kernel's rounding
    # is not ~eps (k T)^2 per node
    pair = make_pair(*POOL_PAIRS[name])
    assert compute_terms(pair, include_cross=False).harvestable()


def test_tail_error_counts_its_panels_rounding(monkeypatch):
    # unequal gaps pair 700: past the live edge its wings' envelope over
    # k_hi + 80 half periods has an integral of |f| ~ 1.4e7 against a value
    # of ~2e-5 for M: 50 eps of that integral joins M's error
    rays = []

    def spy(*args):
        rays.append(real_rays(*args))
        return rays[-1]

    real_rays = specfun._rays
    monkeypatch.setattr(specfun, "_rays", spy)
    pair = make_pair(*POOL_PAIRS["unequal_gaps_700"])
    share, clock, d = harvesting._table(harvesting._columns([pair]), ("m",))["members"][0][0]
    (m,) = specfun.integrate_damped_group(harvesting._spec(share, [(clock, d)]))
    (_, ray_err, ray_abs, _), = rays
    assert ray_abs > 1e5 * abs(m.value)
    assert m.abs_integral >= ray_abs[0]
    assert m.abs_error_estimate >= ray_err[0] + specfun._ROUNDOFF * ray_abs[0]


# ----------------------------------------------------------------------------
# per integral: a rerun on an independent rule lands inside the reported error
# ----------------------------------------------------------------------------

def qk15(monkeypatch):
    # QUADPACK's 15-point rule (its table from tools/gauss_kronrod.py) in
    # place of the engine's, on panels of one half period (and envelope
    # panels of ratio 1.5), as the engine ran it before the 31-point rule
    path = Path(__file__).resolve().parents[1] / "tools" / "gauss_kronrod.py"
    spec = importlib.util.spec_from_file_location("gauss_kronrod", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    x, w, g = tool.full(tool.DQK15)
    sums = np.array([w, w * x, w])
    sums[2, 1::2] -= g
    for name, value in (("_XGK", x), ("_WGK", w), ("_WG", g), ("_SUMS", sums),
                        ("_PANEL_HALF_PERIODS", 1), ("_ENVELOPE_RATIO", 1.5)):
        monkeypatch.setattr(specfun, name, value)
    monkeypatch.setattr(harvesting, "_PANEL_HALF_PERIODS", 1)


def calibration_batches():
    # 30 pairs over the benchmark pool's ranges, 10 per model, the last 10
    # at unequal gaps; and a 5 x 5 fig5a map (one M group), as batches of
    # (pairs, include_cross)
    rng = np.random.default_rng(35)
    models, batches = list(ModelKind), []
    for i in range(30):
        batches.append(([make_pair(models[i % 3], rng.uniform(0.5, 15.0),
                                   10.0 ** rng.uniform(-4.0, -2.0), rng.uniform(0.5, 25.0),
                                   rng.uniform(0.5, 25.0),
                                   rng.uniform(0.8, 1.25) if i >= 20 else 1.0)], i < 20))
    grid = [pair_from_params({"omega_T": 12.0, "a0_omega": 1e-3, "d_over_T": d,
                              "tba_over_T": t}, ModelKind.EM_DIPOLE)
            for t in np.linspace(0.0, 24.0, 5) for d in np.linspace(0.0, 24.0, 5)]
    return batches + [(grid, False)]


def test_an_independent_rule_lands_inside_the_error(monkeypatch):
    # each L, L_AB and M against a rerun with QUADPACK's dqk15 on half
    # periods and finer rays at rtol 1e-12: within its own reported error
    batches = calibration_batches()
    first = [compute_terms_many(pairs, include_cross=cross) for pairs, cross in batches]
    qk15(monkeypatch)
    finer_rays(monkeypatch)
    names = ("l_aa", "l_bb", "m", "l_ab")
    for (pairs, cross), terms in zip(batches, first):
        rerun = compute_terms_many(pairs, include_cross=cross, rtol=1e-12)
        for a, b in zip(terms, rerun):
            for name in names[:3 + cross]:
                moved = abs(getattr(a, name + "_scaled") - getattr(b, name + "_scaled"))
                assert moved <= a.quadrature_errors[name], (name, a, b)
