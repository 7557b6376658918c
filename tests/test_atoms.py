import math

import numpy as np
import pytest

from vharvest.angular import EulerAngles
from vharvest.atoms import AtomSpec, SwitchingKind
from vharvest.oracle import (radial_bruteforce, radial_overlap, radial_R, smearing_scalar,
                             smearing_vector, sphere_quadrature,
                             wavefunction_overlap_log10)
from vharvest.specfun import _adaptive_gk

A0 = 0.37


def adaptive_gk(f, breakpoints, atol, rtol):
    # _adaptive_gk of a plain integrand, whose magnitude is |f|
    def g(r):
        v = f(r)
        return v, np.abs(v)
    return _adaptive_gk(g, breakpoints, atol, rtol)


def quad(f, lo, hi, n=4001):
    xs = np.linspace(lo, hi, n)
    return np.trapezoid(f(xs), xs)


# ----------------------------------------------------------------------------
# radial wavefunctions
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("n,l", [(1, 0), (2, 0), (2, 1)])
def test_radial_normalization(n, l):
    val, _, _, _ = adaptive_gk(lambda r: radial_R(n, l, r, A0) ** 2 * r * r,
                               np.linspace(0.0, 80 * A0, 41), 1e-14, 1e-12)
    assert val.real == pytest.approx(1.0, rel=1e-10, abs=0.0)


def test_radial_r20_node():
    assert radial_R(2, 0, 2 * A0, A0) == 0.0


def test_radial_unsupported_level():
    with pytest.raises(ValueError):
        radial_R(3, 2, 0.5, A0)


def test_radial_dipole_overlap_value():
    val, _, _, _ = adaptive_gk(
        lambda r: radial_R(2, 1, r, A0) * radial_R(1, 0, r, A0) * r ** 3,
        np.linspace(0.0, 80 * A0, 41), 1e-14, 1e-12)
    assert val.real == pytest.approx(128.0 * math.sqrt(6.0) / 243.0 * A0, rel=1e-11, abs=0.0)


# ----------------------------------------------------------------------------
# smearing vector
# ----------------------------------------------------------------------------

def printed_f_a(x, a0):
    r = np.linalg.norm(x)
    th = math.atan2(math.hypot(x[0], x[1]), x[2])
    ph = math.atan2(x[1], x[0])
    pref = math.cos(th) / (4.0 * math.pi * a0 ** 4 * math.sqrt(2.0)) \
        * math.exp(-1.5 * r / a0) * r * r
    return pref * np.array([math.sin(th) * math.cos(ph),
                            math.sin(th) * math.sin(ph),
                            math.cos(th)])


def test_smearing_vector_on_axis_value():
    atom = AtomSpec(a0=A0, omega=1.0)
    got = smearing_vector(atom, np.array([0.0, 0.0, A0]))
    want_z = math.exp(-1.5) / (4.0 * math.pi * math.sqrt(2.0) * A0 ** 2)
    assert got[0] == pytest.approx(0.0, abs=1e-18)
    assert got[1] == pytest.approx(0.0, abs=1e-18)
    assert got[2].real == pytest.approx(want_z, rel=1e-13, abs=0.0)


def test_smearing_vector_parity(rng):
    atom = AtomSpec(a0=A0, omega=1.0)
    for _ in range(20):
        x = rng.normal(size=3) * A0
        assert np.max(np.abs(smearing_vector(atom, x)
                             - smearing_vector(atom, -x))) <= 1e-16


def test_smearing_vector_matches_printed_form(rng):
    atom = AtomSpec(a0=A0, omega=1.0)
    for _ in range(100):
        x = rng.normal(size=3) * A0 * rng.uniform(0.1, 4.0)
        got = smearing_vector(atom, x)
        assert np.max(np.abs(got - printed_f_a(x, A0))) <= 1e-14 / A0 ** 2


def test_smearing_vector_perpendicular_zero_on_axis():
    atom = AtomSpec(a0=A0, omega=1.0,
                    orientation=EulerAngles(0.0, math.pi / 2.0, 0.0))
    got = smearing_vector(atom, np.array([0.0, 0.0, 1.3 * A0]))
    assert np.max(np.abs(got)) <= 1e-16


def test_smearing_vector_orientation_continuity(rng):
    # theta -> 0 converges to the unrotated vector
    base = AtomSpec(a0=A0, omega=1.0)
    x = np.array([0.4, -0.2, 0.9]) * A0
    want = smearing_vector(base, x)
    for theta in (1e-3, 1e-5, 1e-7):
        atom = AtomSpec(a0=A0, omega=1.0, orientation=EulerAngles(0.3, theta, -0.8))
        got = smearing_vector(atom, x)
        assert np.max(np.abs(got - want)) <= 2.0 * theta * np.max(np.abs(want)) + 1e-15


def test_em_1s2s_smearing_vanishes_integrated():
    # z component of psi_2s* x psi_1s integrates to zero: the angular factor
    # integral cos(theta) |Y00|^2 dOmega vanishes, the radial part is finite
    angular = sphere_quadrature([(0, 0, True), (1, 0), (0, 0)]).real \
        * math.sqrt(4.0 * math.pi / 3.0)
    radial, _, _, _ = adaptive_gk(
        lambda r: radial_R(2, 0, r, A0) * radial_R(1, 0, r, A0) * r ** 3,
        np.linspace(0.0, 80 * A0, 41), 1e-14, 1e-12)
    assert abs(angular) * abs(radial.real) <= 1e-12 * A0


# ----------------------------------------------------------------------------
# scalar smearing and switching
# ----------------------------------------------------------------------------

def test_smearing_scalar_node_and_origin():
    atom = AtomSpec(a0=A0, omega=1.0)
    assert smearing_scalar(atom, np.array([0.0, 0.0, 2.0 * A0])) == 0.0
    want = 1.0 / (2.0 * math.sqrt(2.0) * math.pi * A0 ** 3)
    assert smearing_scalar(atom, np.zeros(3)) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_smearing_scalar_array_equals_per_point_calls(rng):
    atom = AtomSpec(a0=A0, omega=1.0)
    x = rng.normal(scale=3.0 * A0, size=(4, 25, 3))
    x[0, 0] = 0.0
    x[0, 1] = (0.0, 0.0, 2.0 * A0)
    got = smearing_scalar(atom, x)
    assert got.shape == (4, 25)
    want = np.array([[smearing_scalar(atom, p) for p in row] for row in x])
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    assert isinstance(smearing_scalar(atom, x[1, 2]), float)
    with pytest.raises(ValueError):
        smearing_scalar(atom, np.zeros(2))


def test_smearing_scalar_integrates_to_zero():
    # <2s|1s> = 0: the full-space integral of the smearing vanishes
    atom = AtomSpec(a0=A0, omega=1.0)

    def f(r):
        rr = np.atleast_1d(r)
        on_axis = np.zeros(rr.shape + (3,))
        on_axis[..., 2] = rr
        return 4.0 * math.pi * rr * rr * smearing_scalar(atom, on_axis)

    val, _, _, _ = adaptive_gk(f, np.linspace(0.0, 80 * A0, 41), 1e-14, 1e-10)
    assert abs(val.real) <= 1e-12


def test_auto_switching_resolves_from_the_lightcone_band():
    auto = SwitchingKind("auto", 3.0)
    sigma = 1.0 / math.sqrt(2.0)
    assert auto.resolve(20.0, 1.0, sigma) == SwitchingKind("cropped_gaussian", 3.0)
    assert auto.resolve(1.0, -20.0, sigma) == SwitchingKind("cropped_gaussian", 3.0)
    assert auto.resolve(11.0, -10.0, sigma) == SwitchingKind()
    assert auto.resolve(10.0 + 7.99 * sigma, 10.0, sigma) == SwitchingKind()
    assert SwitchingKind().resolve(20.0, 1.0, sigma) == SwitchingKind()


def test_switching_kind_validation():
    with pytest.raises(ValueError):
        SwitchingKind("boxcar")
    with pytest.raises(ValueError):
        SwitchingKind("gaussian", crop_sigmas=0.0)


# ----------------------------------------------------------------------------
# radial overlap closed forms
# ----------------------------------------------------------------------------

def test_radial_overlap_k0_values():
    assert radial_overlap(0, 0.0, A0) == pytest.approx(
        128.0 * math.sqrt(6.0) / 243.0 * A0, rel=1e-14, abs=0.0)
    assert radial_overlap(2, 0.0, A0) == 0.0


def test_radial_overlap_closed_vs_quadrature():
    for ak in (1e-3, 0.05, 1.0, 7.0, 15.0):
        k = ak / A0
        for l in (0, 2):
            closed = radial_overlap(l, k, A0)
            brute, err, _ = radial_bruteforce(l, k, A0)
            assert abs(closed - brute) <= max(1e-11 * abs(closed), 10 * err)


def test_radial_overlap_general_l_path():
    # only the l = 0, 2 closed forms exist; other l is radial_bruteforce's job
    for l in (1, 3, 4):
        with pytest.raises(ValueError):
            radial_overlap(l, 2.0 / A0, A0)


def test_radial_overlap_validation():
    with pytest.raises(ValueError):
        radial_overlap(5, 1.0, A0)
    with pytest.raises(ValueError):
        radial_overlap(0, -1.0, A0)


# ----------------------------------------------------------------------------
# displaced 1s-1s overlap
# ----------------------------------------------------------------------------

def test_overlap_log10_paper_scale():
    got = wavefunction_overlap_log10(1e4 * A0, A0)
    assert abs(got - (-4343.0)) <= 0.01 * 4343.0


def test_overlap_log10_at_zero():
    assert wavefunction_overlap_log10(0.0, A0) == 0.0


def test_overlap_log10_intermediate():
    got = wavefunction_overlap_log10(1e3 * A0, A0)
    assert abs(got - (-434.3)) <= 0.02 * 434.3


def test_overlap_log10_matches_3d_quadrature():
    # two-center overlap at d = 2 a0: the angular integral has the elementary
    # antiderivative int e^{-rp/a} rp drp, leaving a 1D radial quadrature
    d = 2.0 * A0

    def angular(r):
        lo = np.abs(r - d)
        hi = r + d
        anti = lambda rp: -A0 * np.exp(-rp / A0) * (rp + A0)
        return (anti(hi) - anti(lo)) / (r * d)

    def f(r):
        r = np.asarray(r, dtype=float)
        return 2.0 * math.pi * r * r / (math.pi * A0 ** 3) \
            * np.exp(-r / A0) * angular(r)

    pts = np.unique(np.concatenate([np.linspace(1e-9, 40 * A0, 41), [d]]))
    val, _, _, _ = adaptive_gk(f, pts, 1e-15, 1e-12)
    assert math.log10(val.real) == pytest.approx(
        wavefunction_overlap_log10(d, A0), abs=1e-9)


def test_atomspec_validation():
    with pytest.raises(ValueError):
        AtomSpec(a0=-1.0, omega=1.0)
    with pytest.raises(ValueError):
        AtomSpec(a0=1.0, omega=0.0)
    with pytest.raises(ValueError):
        AtomSpec(a0=1.0, omega=1.0, switching_width=0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["a0", "omega", "switching_width",
                                   "switching_center", "position"])
def test_atomspec_rejects_non_finite_inputs_by_name(field, bad):
    value = (0.0, 0.0, bad) if field == "position" else bad
    with pytest.raises(ValueError, match=field):
        AtomSpec(**{"a0": 1.0, "omega": 1.0, field: value})


def test_atomspec_position_needs_three_numbers():
    with pytest.raises(ValueError, match="position"):
        AtomSpec(a0=1.0, omega=1.0, position=(0.0, 1.0))
