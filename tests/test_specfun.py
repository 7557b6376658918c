import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import spherical_jn, wofz

from vharvest import specfun
from vharvest.oracle import radial_bruteforce, radial_overlap
from vharvest.specfun import (DampedKernelSpec, QuadratureConvergenceError,
                              QuadratureResult, _adaptive_gk,
                              integrate_damped_group, scaled_time_kernel,
                              spherical_bessel_j0, spherical_bessel_j0_plus_j2)

SQRT2 = math.sqrt(2.0)


def j_l(l, x):
    # j_l: the engine's j0 at l = 0, scipy's above
    return spherical_bessel_j0(x)[0] if l == 0 else spherical_jn(l, x)


def with_abs(f):
    # a plain integrand in the quadrature's (value, magnitude) form
    def g(k):
        v = f(k)
        return v, np.abs(v)
    return g


def alone(f):
    # a spec's fields for one member whose one time factor is f, a (value,
    # magnitude) integrand, times a scale of 1: f's bits
    return {"integrand": np.ones_like, "members": (((lambda k: (f(k),)), 0.0),)}


# ----------------------------------------------------------------------------
# independent references (series / continued fraction / asymptotics)
# ----------------------------------------------------------------------------

def erfc_series(z: complex) -> complex:
    # Maclaurin series of erf; good to ~1e-15 for |z| <= 2.5
    term = z
    acc = z
    zz = z * z
    for n in range(1, 120):
        term *= -zz / n
        acc += term / (2 * n + 1)
    return 1.0 - 2.0 / math.sqrt(math.pi) * acc


def faddeeva_w(z: complex) -> complex:
    # the time kernel's w(z) at one point of the upper half plane
    return complex(specfun._faddeeva(np.array([z.real]), z.imag)[0])


def test_faddeeva_at_zero():
    assert faddeeva_w(0.0) == pytest.approx(1.0, abs=1e-15)


def test_faddeeva_at_i():
    # w(i) = e * erfc(1), erfc(1) from the independent series
    ref = math.e * erfc_series(1.0 + 0.0j).real
    assert ref == pytest.approx(0.4275836, abs=1e-7)
    assert faddeeva_w(1j).real == pytest.approx(ref, rel=1e-12)
    assert abs(faddeeva_w(1j).imag) < 1e-15


def faddeeva_cf(z: complex, depth: int = 40) -> complex:
    # Laplace continued fraction for w, accurate for large |z| in the upper
    # half plane: w(z) = (i/sqrt(pi)) / (z - (1/2)/(z - 1/(z - (3/2)/(...))))
    cf = 0.0 + 0.0j
    for n in range(depth, 0, -1):
        cf = (0.5 * n) / (z - cf)
    return 1j / math.sqrt(math.pi) / (z - cf)


def test_faddeeva_asymptotic_large_real():
    # leading asymptotic w(x) ~ i/(sqrt(pi) x), cross-checked against the
    # continued fraction
    x = 1e6
    lead = 1j / (math.sqrt(math.pi) * x)
    w = faddeeva_w(x + 0.0j)
    assert abs(w - lead) <= 1e-9 * abs(lead)
    assert w == pytest.approx(faddeeva_cf(x + 0.0j), rel=1e-13)


@pytest.mark.parametrize("a", [0.0, 1e-3, 1.0, 10.0])
def test_faddeeva_is_within_the_live_edge_bound(a):
    # |w(z)| <= 2/(sqrt(pi) |z|) in the upper half plane (w = pi^-1/2 int_0^inf
    # e^{-t^2/4 + izt} dt by parts once), over |z| in [1e-2, 1e6] on both sides of 0
    r = np.geomspace(1e-2, 1e6, 2001)
    r = r[r >= a]
    x = np.sqrt(r * r - a * a)
    for side in (x, -x):
        w = specfun._faddeeva(side, a)
        assert np.all(np.abs(w) <= 2.0 / (math.sqrt(math.pi) * np.hypot(side, a)))


# ----------------------------------------------------------------------------
# time kernel
# ----------------------------------------------------------------------------

def naive_erfc(z: complex) -> complex:
    # erfc(z) = exp(-z^2) w(iz), with the reflection erfc(z) = 2 - erfc(-z)
    # for Re z < 0; raises OverflowError where the value leaves double range
    if z.real < 0.0:
        return 2.0 - naive_erfc(-z)
    return cmath.exp(-z * z + cmath.log(complex(wofz(1j * z))))


def naive_bracket(k, t_ba, T, omega):
    def E(t):
        return cmath.exp(1j * k * t) * naive_erfc(
            complex(t, T * T * k) / (SQRT2 * T))
    return math.exp(-0.5 * T * T * (omega * omega + k * k)) * (E(t_ba) + E(-t_ba))


def damped_kernel(k, t_ba, T, omega):
    # the kernel of equal gaps times exp(-T^2 omega^2/2), naive_bracket's scale
    return scaled_time_kernel(k, t_ba, T, d_omega=0.0)[0] * math.exp(-0.5 * (T * omega) ** 2)


def test_kernel_tba_zero_real_part():
    # erfc of a purely imaginary argument has real part 1, so before damping
    # Re[E+E] = 2 independent of k
    for k in (0.3, 1.0, 4.0):
        val, _ = scaled_time_kernel(k, 0.0, 1.0, d_omega=0.0)
        assert val.real == pytest.approx(2.0 * math.exp(-0.5 * k * k), rel=1e-13)
        bare = val * math.exp(0.5 * k * k)
        assert bare.real == pytest.approx(2.0, rel=1e-12)


def test_kernel_matches_naive_path():
    # Tk = 5, t_ba/T = 3: still representable directly
    got = damped_kernel(5.0, 3.0, 1.0, 0.7)
    ref = naive_bracket(5.0, 3.0, 1.0, 0.7)
    assert got == pytest.approx(ref, rel=1e-11)


def test_kernel_finite_where_naive_overflows():
    # naive erfc((i T^2 k + t)/(sqrt2 T)) overflows past Tk ~ 38
    with pytest.raises(OverflowError):
        naive_bracket(200.0, 10.0, 1.0, 0.0)
    val, _ = scaled_time_kernel(200.0, 10.0, 1.0, d_omega=0.0)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert abs(val) < 1.0


def test_kernel_even_in_tba(rng):
    # even in t_ba at equal gaps; at unequal gaps t_ba -> -t_ba with
    # d_omega -> -d_omega relabels A <-> B
    for _ in range(50):
        k = rng.uniform(0, 30)
        t = rng.uniform(0, 12)
        T = rng.uniform(0.5, 2.0)
        a = damped_kernel(k, t, T, 0.3)
        b = damped_kernel(k, -t, T, 0.3)
        assert a == pytest.approx(b, rel=1e-14)
        d_om = rng.uniform(-2.0, 2.0)
        assert (scaled_time_kernel(k, t, T, d_omega=d_om)
                == scaled_time_kernel(k, -t, T, d_omega=-d_om))


def test_kernel_fused_equals_unfused_where_representable(rng):
    for _ in range(200):
        k = rng.uniform(0, 25)
        t = rng.uniform(0, 8)
        T = rng.uniform(0.5, 1.5)
        if T * k > 36:
            continue
        got = damped_kernel(k, t, T, 1.0)
        ref = naive_bracket(k, t, T, 1.0)
        if ref != 0:
            assert abs(got - ref) <= 1e-10 * abs(ref)


def kernel_args(k, t_ba, T, d_omega):
    # a, b, c as the kernel forms them, and its nodes where every Faddeeva
    # argument lies below |z| = 7, the near field that scipy's wofz serves
    k = np.asarray(k, dtype=float)
    a = abs(t_ba) / (SQRT2 * T)
    b = T * k / SQRT2
    c = (-1.0 if t_ba < 0.0 else 1.0) * T * d_omega / (2.0 * SQRT2)
    near = ((b - c) ** 2 + a * a < 49.0) & ((b + c) ** 2 + a * a < 49.0)
    return a, b, c, near


def mp_time_kernel(k, t_ba, T, d_omega):
    # the kernel's formula at 40 digits, with w(z) = e^{-z^2} erfc(-iz)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    k, t_ba, T, d_omega = map(mp.mpf, (k, t_ba, T, d_omega))
    a = abs(t_ba) / (mp.sqrt(2) * T)
    b = T * k / mp.sqrt(2)
    c = (-1 if t_ba < 0 else 1) * T * d_omega / (2 * mp.sqrt(2))
    w = lambda z: mp.exp(-z * z) * mp.erfc(-1j * z)
    value = (mp.exp(-a * a) * (mp.conj(w(b - c + 1j * a)) - w(b + c + 1j * a))
             + 2 * mp.exp(-(b + c) ** 2 - 2j * a * (b + c)))
    return complex(value)


def assert_far_nodes_within_bound(k, t_ba, T, d_omega, value, mag, far, count=24):
    # evenly spread far-field nodes within the kernel's own rounding bound
    # of 40-digit mpmath; a value below the normal range rounds in units of
    # 2^-1074, a few of which the relative bound cannot see
    idx = np.flatnonzero(far)
    assert idx.size
    idx = np.unique(idx[np.linspace(0, idx.size - 1, count).astype(int)])
    for i in idx:
        ref = mp_time_kernel(k[i], t_ba, T, d_omega)
        bound = specfun._ROUNDOFF * mag[i] + 8 * math.ulp(0.0)
        assert abs(value[i] - ref) <= bound, (k[i], value[i], ref)


def two_wofz_kernel(k, t_ba, T, d_omega):
    # the wings as the difference of two Faddeeva calls, w(c - b + ia) for
    # conj w(b - c + ia), before the reflection w(-conj z) = conj w(z)
    # folded them into one at c = 0
    a, b, c, _ = kernel_args(k, t_ba, T, d_omega)
    wings = np.exp(-a * a) * (wofz(c - b + 1j * a) - wofz(b + c + 1j * a))
    return wings + 2.0 * np.exp(-(b + c) ** 2 - 2j * a * (b + c))


@pytest.mark.parametrize("t_ba, T, d_omega", [
    (0.0, 1.0, 0.0),      # t_ba = 0: the wings reduce to -2i Im w(b)
    (10.0, 1.0, 0.0),
    (-3.5, 0.7, 0.0),     # negative delay
    (24.0, 2.0, 0.0),
    (-3.5, 0.7, 2.0),     # unequal gaps: two Faddeeva calls
    (0.0, 1.0, -1.5),
    (24.0, 2.0, 12.0),
])
def test_kernel_bitwise_equal_to_two_wofz_form(t_ba, T, d_omega):
    # k out to T k = 200, well past the T k > 38 overflow of the bare erfc:
    # bit for bit where both Faddeeva arguments lie below |z| = 7, and past
    # it, where the asymptotic series replaces wofz, within the bound
    k = np.concatenate([np.linspace(0.0, 200.0 / T, 15001), [38.5 / T, 60.0 / T]])
    assert np.any(T * k > 38.0)
    new, mag = scaled_time_kernel(k, t_ba, T, d_omega=d_omega)
    near = kernel_args(k, t_ba, T, d_omega)[3]
    assert np.array_equal(new[near], two_wofz_kernel(k[near], t_ba, T, d_omega))
    assert_far_nodes_within_bound(k, t_ba, T, d_omega, new, mag, ~near)
    for kk in (0.0, 1.3, 45.0 / T):
        value, kk_mag = scaled_time_kernel(kk, t_ba, T, d_omega=d_omega)
        if kernel_args(kk, t_ba, T, d_omega)[3]:
            assert value == complex(two_wofz_kernel(kk, t_ba, T, d_omega))
        else:
            ref = mp_time_kernel(kk, t_ba, T, d_omega)
            assert abs(value - ref) <= specfun._ROUNDOFF * kk_mag


def one_wofz_kernel(k, t_ba, T):
    # equal gaps as one Faddeeva call per node: the reflection
    # w(-conj z) = conj w(z) folds the wings into -2i Im w(b + ia)
    a = abs(t_ba) / (SQRT2 * T)
    b = T * k / SQRT2
    e_a = np.exp(-a * a)
    w = wofz(b + 1j * a)
    gauss = 2.0 * np.exp(-b * b - 2j * a * b)
    value = e_a * (-2j * w.imag) + gauss
    mag = (2.0 * e_a * (2.0 + a * a) * np.abs(w)
           + np.abs(gauss) * (1.0 + b * b + 2.0 * a * b))
    return value, mag


def same_bits(x, y):
    # equal to the last bit, signed zeros and NaN payloads included
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("T", [1e-3, 0.3, 1.0, 7.0, 1e3])
def test_kernel_equal_gaps_bitwise_equal_to_one_wofz_form(T):
    # bit for bit below |z| = 7, within the bound past it
    k = np.concatenate([np.geomspace(1e-8 / T, 1e5 / T, 4000),
                        np.linspace(0.0, 60.0 / T, 4000)])
    for t_ba in (0.0, 1e-9, 0.5, 3.0, 24.0, -7.0, 1e3):
        value, mag = scaled_time_kernel(k, t_ba, T, d_omega=0.0)
        near = kernel_args(k, t_ba, T, 0.0)[3]
        if near.any():
            ref_value, ref_mag = one_wofz_kernel(k[near], t_ba, T)
            assert same_bits(value[near], ref_value), t_ba
            assert same_bits(mag[near], ref_mag), t_ba
        assert_far_nodes_within_bound(k, t_ba, T, 0.0, value, mag, ~near, count=12)


def two_term_kernel(k, t_ba, T):
    # equal gaps as e^-a^2 (conj w - w) and |w| + |w|, w from one _faddeeva
    # call (wofz or its asymptotic series), plus the Gaussian
    a, b = abs(t_ba) / (SQRT2 * T), T * k / SQRT2
    e_a, w = np.exp(-a * a), specfun._faddeeva(b, a)
    value = e_a * (w.conj() - w)
    mag = e_a * (2.0 + a * a) * (np.abs(w) + np.abs(w))
    if np.count_nonzero(b * b < 750.0):
        gauss = 2.0 * np.exp(-b * b - 2j * a * b)
        value, mag = value + gauss, mag + np.abs(gauss) * (1.0 + b * b + 2.0 * a * np.abs(b))
    return value, mag


@pytest.mark.parametrize("T", [0.3, 1.0, 7.0])
def test_kernel_equal_gaps_from_im_w_keep_the_two_term_bits(T):
    # -2i Im w and 2|w| are conj w - w and |w| + |w| exactly: the same bits
    # at every node, near and far, for delays of both signs, and where the
    # Gaussian 2 e^-b^2 is subnormal (b^2 ~ 730, T k ~ 38.2)
    k = np.concatenate([np.linspace(0.0, 60.0 / T, 6001), [38.2 / T, 38.6 / T]])
    assert 0.0 < 2.0 * math.exp(-(38.2 / SQRT2) ** 2) < np.finfo(float).tiny
    for t_ba in (0.0, 1.0, -1.0, 5.0, -5.0, 12.0, -12.0, 20.0, -20.0):
        value, mag = scaled_time_kernel(k, t_ba, T, d_omega=0.0)
        ref_value, ref_mag = two_term_kernel(k, t_ba, T)
        assert same_bits(value, ref_value) and same_bits(mag, ref_mag), t_ba
        one = scaled_time_kernel(38.2 / T, t_ba, T, d_omega=0.0)
        assert same_bits(one[0], complex(ref_value[-2])) and one[1] == ref_mag[-2]


@pytest.mark.parametrize("d_omega, calls", [(0.0, 1), (-0.0, 1), (0.3, 2), (-1.5, 2)])
def test_kernel_calls_wofz_once_at_equal_gaps(monkeypatch, d_omega, calls):
    # wofz sees exactly the near-field arguments, b - c + ia and then (at
    # unequal gaps) b + c + ia where |z| < 7, and nothing where all are far
    seen = []
    real = specfun._wofz

    def spy(z):
        seen.append(np.array(z))
        return real(z)

    monkeypatch.setattr(specfun, "_wofz", spy)
    for k in (np.linspace(0.0, 40.0, 301), np.linspace(0.0, 3.0, 31),
              np.linspace(12.0, 40.0, 57)):
        for t_ba in (0.0, -2.5):
            seen.clear()
            scaled_time_kernel(k, t_ba, 1.0, d_omega=d_omega)
            a, b, c, _ = kernel_args(k, t_ba, 1.0, d_omega)
            args = [x[x * x + a * a < 49.0] + 1j * a for x in (b - c, b + c)[:calls]]
            expected = [z for z in args if z.size]
            assert len(seen) == len(expected) == (calls if k[-1] < 12.0 else
                                                   0 if k[0] >= 12.0 else calls)
            assert all(same_bits(z, e) for z, e in zip(seen, expected))


def mp_faddeeva(z):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    z = mp.mpc(z.real, z.imag)
    return complex(mp.exp(-z * z) * mp.erfc(-1j * z))


def assert_faddeeva_within_4_eps(x, a):
    got = specfun._faddeeva(np.asarray(x, dtype=float), a)
    ref = np.array([mp_faddeeva(complex(v, a)) for v in np.ravel(x)])
    err = np.abs(got.ravel() - ref) / np.abs(ref)
    assert np.all(err <= 4.0 * np.finfo(float).eps), (np.max(err), a)


def test_faddeeva_series_within_4_eps_of_mpmath():
    # each radius from which the series takes one term fewer, and |z| = 7,
    # where it takes over from wofz, at +-1 ulp, one argument per call so
    # that its |z| sets the terms, on the real axis and off it
    angles = (0.0, 1e-3, 0.3, math.pi / 2, 2.5, math.pi - 1e-3, math.pi)
    for edge in (*specfun._W_RADII, specfun._W_FAR):
        for r in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf)):
            for theta in angles:
                x, a = r * math.cos(theta), max(0.0, r * math.sin(theta))
                if x * x + a * a < 49.0:
                    # below |z| = 7 the argument goes to wofz as it is
                    assert same_bits(specfun._faddeeva(np.array([x]), a), wofz([x + 1j * a]))
                else:
                    assert_faddeeva_within_4_eps([x], a)
    # the real axis and just above it, Re z < 0 too (b - c of unequal
    # gaps), where scipy's wofz is off the most
    x = np.concatenate([np.linspace(7.0, 12.0, 41), np.geomspace(12.0, 1e6, 20)])
    for a in (0.0, 1e-6, 1e-3, 0.05):
        assert_faddeeva_within_4_eps(x, a)
        assert_faddeeva_within_4_eps(-x, a)
    # |z| from 7 out to 1e6 on both sides of the imaginary axis, in calls of
    # as many terms as |z| = 7 takes
    sign = np.random.default_rng(5).choice([-1.0, 1.0], 80)
    for a in (0.5, 3.0, 6.9, 40.0):
        r = np.geomspace(max(7.001, a), 1e6, 80)
        assert_faddeeva_within_4_eps(sign * np.sqrt(r * r - a * a), a)


@pytest.mark.parametrize("t_ba, d_omega", [(0.0, 0.0), (1.5, 0.0), (-2.0, 0.7), (3.0, -1.2),
                                           (24.0, 0.0)])
def test_time_wings_are_the_kernel_less_its_gaussian_past_the_live_edge(t_ba, d_omega):
    # on the real axis past b - |c| = sqrt(60) the wings are the time kernel
    # less its Gaussian part 2 e^{-(b+c)^2 - 2ia(b+c)}, within the kernel's
    # rounding bound; at complex k the second value, W(conj k) by symmetry,
    # is W evaluated at conj k
    T = 0.8
    a, c = abs(t_ba) / (SQRT2 * T), math.copysign(T * d_omega / (2.0 * SQRT2), t_ba or 1.0)
    k = SQRT2 / T * (math.sqrt(60.0) + abs(c)) * np.geomspace(1.0, 1e4, 400)
    value, mag = scaled_time_kernel(k, t_ba, T, d_omega=d_omega)
    bc = T * k / SQRT2 + c
    gauss = 2.0 * np.exp(-bc * bc - 2j * a * bc)
    wings, mirror = specfun._time_wings(k.astype(complex), t_ba, T, d_omega=d_omega)
    assert np.all(np.abs(wings - (value - gauss)) <= specfun._ROUNDOFF * mag)
    assert np.allclose(mirror, wings, rtol=1e-15, atol=0.0)
    z = k[::40] * (1.0 + 0.7j)
    assert np.allclose(specfun._time_wings(z, t_ba, T, d_omega=d_omega)[1],
                       specfun._time_wings(z.conj(), t_ba, T, d_omega=d_omega)[0],
                       rtol=1e-14, atol=0.0)


def test_kernel_rejects_bad_width():
    with pytest.raises(ValueError):
        scaled_time_kernel(1.0, 0.0, -1.0, d_omega=0.0)


def test_kernel_gap_difference_is_keyword_only():
    # a fourth positional argument is refused, so a call written for the
    # kernel's former damping gap cannot be read as a gap difference
    with pytest.raises(TypeError):
        scaled_time_kernel(1.0, 2.0, 1.0, 0.3)


# ----------------------------------------------------------------------------
# spherical Bessel functions
# ----------------------------------------------------------------------------

def bessel_series_ref(l, x, terms=60):
    dfact = 1.0
    for i in range(1, 2 * l + 2, 2):
        dfact *= i
    acc = 0.0
    term = 1.0
    acc = term
    for m in range(1, terms):
        term *= -0.5 * x * x / (m * (2 * l + 2 * m + 1))
        acc += term
    return x ** l / dfact * acc


def test_bessel_limits():
    assert spherical_bessel_j0(0.0)[0] == 1.0
    assert spherical_jn(2, 0.0) == 0.0
    assert spherical_bessel_j0(math.pi)[0] == pytest.approx(0.0, abs=1e-16)


def test_bessel_j2_series_value():
    ref = bessel_series_ref(2, 1.0)
    assert ref == pytest.approx(0.0620350520, abs=1e-9)
    assert spherical_jn(2, 1.0) == pytest.approx(ref, rel=1e-13)


def bessel_recurrence_ref(l, x):
    # upward recurrence from sin/cos seeds; stable for l < x
    j0 = math.sin(x) / x
    if l == 0:
        return j0
    j1 = math.sin(x) / (x * x) - math.cos(x) / x
    for ll in range(1, l):
        j0, j1 = j1, (2 * ll + 1) / x * j1 - j0
    return j1


def test_bessel_against_series_and_recurrence(rng):
    # references independent of the implementation's series/trig split:
    # the Maclaurin series where it is well conditioned, upward recurrence
    # from the sin/cos seeds where it is stable
    for _ in range(300):
        l = int(rng.integers(0, 5))
        x = rng.uniform(0.0, 6.0)
        ref = bessel_series_ref(l, x, terms=80)
        assert j_l(l, x) == pytest.approx(ref, rel=6e-13, abs=1e-250)
    for _ in range(300):
        l = int(rng.integers(0, 5))
        x = rng.uniform(6.0, 200.0)
        ref = bessel_recurrence_ref(l, x)
        assert j_l(l, x) == pytest.approx(ref, rel=1e-11, abs=1e-18)


def test_bessel_recurrence(rng):
    xs = np.geomspace(0.1, 100.0, 500)
    for l in (1, 2, 3):
        lhs = j_l(l - 1, xs) + j_l(l + 1, xs)
        rhs = (2 * l + 1) / xs * j_l(l, xs)
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        scale = np.maximum(scale, np.abs(j_l(l, xs)))
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-11


def test_j0_plus_j2_matches_the_two_calls():
    # dense in [0, 500], with both sides of the x = 5 series/trig switch
    x = np.concatenate([np.linspace(0.0, 500.0, 500001),
                        np.linspace(4.9, 5.1, 20001),
                        [0.0, np.nextafter(5.0, 0.0), 5.0, np.nextafter(5.0, 6.0)]])
    fused, mag = spherical_bessel_j0_plus_j2(x)
    j0, j2 = spherical_bessel_j0(x)[0], spherical_jn(2, x)
    pair = j0 + j2
    # within the two rounding bounds on both sides of the switch; the two
    # calls' sum cancels |j0| + |j2| ~ 2/x down to 3 j1(x)/x ~ 3/x^2
    assert np.all(np.abs(fused - pair)
                  <= specfun._ROUNDOFF * (mag + np.abs(j0) + np.abs(j2)))
    # below it the two-call sum itself is off by up to ~1.1e-15 just below
    # x = 5 (its j0 series cancels from terms ~5), hence 1.5e-15, not 1e-15
    assert np.max(np.abs(fused - pair)) <= 1.5e-15
    assert spherical_bessel_j0_plus_j2(0.0) == (1.0, 1.0)
    assert all(isinstance(v, float) for v in spherical_bessel_j0_plus_j2(5.0))
    assert spherical_bessel_j0_plus_j2(5.0)[0] == pytest.approx(
        spherical_bessel_j0(5.0)[0] + spherical_jn(2, 5.0), abs=1e-15)
    with pytest.raises(ValueError):
        spherical_bessel_j0_plus_j2(-1e-3)


def test_j0_plus_j2_against_high_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    xs = np.concatenate([np.linspace(0.01, 12.0, 1200), [4.99, 5.0, 5.01, 250.0]])
    ref = np.array([float(3 * mp.sqrt(mp.pi / (2 * mp.mpf(v))) * mp.besselj(1.5, mp.mpf(v))
                          / mp.mpf(v)) for v in xs])
    assert np.max(np.abs(spherical_bessel_j0_plus_j2(xs)[0] - ref)) <= 5e-16


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        spherical_bessel_j0(-0.5)


# ----------------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------------

def _seed_breakpoints(w, lengths):
    # the head's seed panels as a set of Python floats, sorted
    k_hi = math.sqrt(750.0 / w)
    pts = {0.0, k_hi}
    pts.update(np.geomspace(k_hi * 1e-4, k_hi, 17))
    if lengths:
        h = min(lengths) / 2.0
        n_osc = int(k_hi / h)
        if n_osc > 1:
            stride = max(1, int(math.ceil(n_osc / 600)))
            pts.update(np.arange(1, n_osc + 1)[::stride] * h)
    return np.array(sorted(pts))


def test_seed_breakpoints_keep_every_bit(monkeypatch):
    # the first pass of the head evaluates the seed panels
    seen = []
    real = specfun._gk15_panels

    def spy(f, lo, hi, *args, **kwargs):
        seen.append(np.append(lo, hi[-1]))
        return real(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(specfun, "_gk15_panels", spy)
    f = with_abs(lambda k: np.exp(-k * k))
    for w in (0.5, 0.5, 1.0, 0.08, 3.7):
        for lengths in ((), (2 * math.pi / 4.0,), (2 * math.pi / 25.0, 1.3), (1e-3,)):
            seen.clear()
            integrate_damped_group(DampedKernelSpec(w, lengths, **alone(f)))
            assert np.array_equal(seen[0], _seed_breakpoints(w, lengths))


def test_gk15_panels_rows_in_member_order():
    # _integrands visits the members time by time, (t1, t1, t2); the rows
    # come back in member order: member i's row of each returned array is
    # that of a call with it alone
    def constant(c):
        return lambda k: ((np.full_like(k, c), np.zeros_like(k)),)

    t1, t2 = constant(1.0), constant(2.0)
    members = ((t1, 0.0), (t2, 0.0), (t1, 0.0))
    f = np.ones_like  # the positive scale the time factors multiply
    lo, hi = np.array([0.0, 1.0]), np.array([1.0, 3.0])
    value, err, absl, n = specfun._gk15_panels(f, lo, hi, members=members)
    assert value.shape == err.shape == absl.shape == (3, 2)
    assert np.allclose(value, [[1.0, 2.0], [2.0, 4.0], [1.0, 2.0]], rtol=1e-15)
    for i, member in enumerate(members):
        alone = specfun._gk15_panels(f, lo, hi, members=[member])
        assert np.array_equal(alone[0][0], value[i])
    assert n == 2 * 15


def test_a_head_pass_gives_each_member_the_rows_it_has_alone():
    # one time's members with d > 0 are reduced in blocks of at most
    # _BLOCK_NODES nodes; here they span several blocks, and a member with
    # d = 0 is a row alone: its row of the returned (members, panels)
    # arrays has the bits of one _gk15_panels call for it alone, and a
    # block member's agrees with that call within its roundoff floor
    # (``within_the_floor``).  (A member without a time cannot share a pass
    # with timed ones: the integrand is then its own (value, magnitude), not
    # their scale.)
    def time(k):
        return (scaled_time_kernel(k, 2.0, 1.0, d_omega=0.0),)

    def f(k):
        return k ** 3 / (4.0 * (1e-3 * k) ** 2 + 9.0) ** 6

    lo = np.linspace(0.0, 60.0, 401)[:-1]
    hi = lo + 0.15
    ds = (0.5, 1.0, 2.5, 4.0, 7.0, 11.0, 13.0)
    members = [(time, d) for d in ds] + [(time, 0.0)]
    kernel, blocks = specfun.spherical_bessel_j0_plus_j2, []

    def spy(x):
        blocks.append(np.shape(x))
        return kernel(x)

    together = specfun._gk15_panels(f, lo, hi, spy, members)
    # three blocks of two d, and the last d alone in its block
    assert [b[:-1] for b in blocks] == [(2,), (2,), (2,), (1,)]
    assert 2 * blocks[0][1] <= specfun._BLOCK_NODES < 3 * blocks[0][1]
    for i, member in enumerate(members):
        alone = [x[0] for x in specfun._gk15_panels(f, lo, hi, kernel, [member])[:3]]
        row = [x[i] for x in together[:3]]
        if member[1] == 0.0:
            assert all(np.array_equal(x, y) for x, y in zip(row, alone))
        else:
            assert within_the_floor(row, alone)


def within_the_floor(row, alone):
    # a block row's (values, errors, abs_integrals) on its panels against the
    # row alone: each panel's value within its roundoff floor F = 50 eps x
    # resabs, its resabs within 8 eps, and its error, which amplifies the
    # sums' rounding in |K - G| by up to 300, within 200 F
    floor = specfun._ROUNDOFF * alone[2]
    return (np.all(np.abs(row[0] - alone[0]) <= floor)
            and np.all(np.abs(row[1] - alone[1]) <= 200.0 * floor)
            and np.all(np.abs(row[2] - alone[2]) <= 8.0 * np.finfo(float).eps * alone[2]))


ROW_KINDS = ("random", "smooth", "even", "constant", "nan", "inf")


def reduce_row(rng, kind, scale, p):
    # one member's (values, magnitudes) on p panels of 15 nodes: the
    # magnitude at least |value|, as the rounding model asks
    x = specfun._XGK
    if kind == "smooth":
        c = rng.standard_normal((p, 3, 2)) @ [1.0, 1j]
        fv = c[:, :1] * np.exp(0.3 * x) + c[:, 1:2] * x + 1e-9 * c[:, 2:] * np.cos(9.0 * x)
    else:
        fv = rng.standard_normal((p, 15)) + 1j * rng.standard_normal((p, 15))
    if kind == "even":  # first moment exactly 0
        fv = fv + fv[:, ::-1]
    elif kind == "constant":  # |f - mean| is 0 or rounding
        fv = np.repeat(fv[:, :1], 15, axis=1)
    fv = fv * scale
    if kind in ("nan", "inf"):
        fv[rng.integers(p), rng.integers(15)] = np.nan if kind == "nan" else np.inf
    return fv.ravel(), (np.abs(fv) * (1.0 + rng.uniform(0.0, 2.0, fv.shape))).ravel()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(ROW_KINDS),
                          st.sampled_from([1.0, 1e-300, 1e250, 3e-7, 4e12])),
                min_size=2, max_size=6),
       st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_gk15_reduce_block_rows_have_the_full_formulas_bits(rows, p, seed):
    # a stack of rows gets, row by row and bit for
    # bit, what the full formula gives each row alone, NaN and inf rows
    # included
    rng = np.random.default_rng(seed)
    fv, fm = map(np.array, zip(*(reduce_row(rng, kind, scale, p) for kind, scale in rows)))
    half = rng.uniform(1e-3, 2.0, p)
    # finite rows raise no floating-point warning; inf ones warn on the row path too
    bad = any(kind in ("nan", "inf") for kind, _ in rows)
    with np.errstate(**dict.fromkeys(("divide", "over", "invalid"), "ignore" if bad else "raise")):
        block = specfun._gk15_reduce(fv, fm, half)
        for b in range(len(rows)):
            alone = specfun._gk15_reduce(fv[b], fm[b], half)
            for x, y in zip(block, alone):
                assert same_bits(x[b], y), rows[b]


def test_gk15_reduce_block_path_claims_the_floor_of_smooth_rows(monkeypatch):
    # a block of smooth rows, a smooth spatial row times smooth times, is
    # proved at every panel: no |f - mean| pass
    rng = np.random.default_rng(5)
    c = (rng.standard_normal((2, 4, 30, 2)) @ [1.0, 1j])[..., None]
    u = (c[0] * np.exp(0.3 * specfun._XGK) + c[1] * specfun._XGK).reshape(4, -1)
    sv = (np.exp(-0.2 * specfun._XGK) * rng.uniform(1.0, 2.0, (3, 30, 1))).reshape(3, -1)
    at = np.divmod(np.arange(12), 4)
    units = u.reshape(4, 30, 15).transpose(1, 2, 0)  # per panel, node and time
    units = np.ascontiguousarray(units), np.abs(units), np.abs(units)
    monkeypatch.setattr(specfun, "_quadpack_error", None)
    value, err, absl = specfun._gk15_blocks((sv, sv), units, at, np.full(30, 0.01))
    assert value.shape == (12, 30)
    assert np.array_equal(err, specfun._ROUNDOFF * absl)


def test_adaptive_gk_gives_identical_members_the_bits_of_one_alone():
    # k copies of one member share every pass as rows of one block, are
    # tested, scored and dropped as rows of the driver's arrays, and each
    # gets the (value, error, abs_integral, evals) of the member alone
    def time(k):
        return (scaled_time_kernel(k, 6.0, 1.0, d_omega=0.0),)

    def f(k):
        return k ** 3 / (4.0 * (1e-3 * k) ** 2 + 9.0) ** 6

    kernel = spherical_bessel_j0_plus_j2
    breakpoints = np.linspace(0.0, 40.0, 9)
    alone = _adaptive_gk(f, breakpoints, 1e-300, 1e-12, kernel=kernel, members=[(time, 3.0)])
    assert alone[0][3] > 15 * 8  # it refines
    for k in (2, 3, 5):
        copies = _adaptive_gk(f, breakpoints, 1e-300, 1e-12, kernel=kernel,
                              members=[(time, 3.0)] * k)
        assert all(same_bits(x, y) for copy in copies for x, y in zip(copy, alone[0]))


def test_tail_rows_of_several_times_have_the_bits_of_each_time_alone():
    # the tails past the live edge, one ray pass for members of two times:
    # each time is evaluated once, on the envelope row, and each wings
    # callable once, on its members' upper rays and that row.  A member's
    # value and evaluations have the bits of a pass of its time alone; its
    # error and abs_integral, whose envelope sums are matrix products over
    # the pass's times, agree within 2 eps
    calls = []

    def time(t):
        def factors(k):
            calls.append(("time", t, k.size))
            return (scaled_time_kernel(k, t, 1.0, d_omega=0.0),)
        return factors

    def wings(t):
        def w(k):
            calls.append(("wings", t, k.size))
            return specfun._time_wings(k, t_ba=t, T=1.0, d_omega=0.0)
        return w

    def f(k):
        return k ** 3 / (4.0 * (1e-3 * k) ** 2 + 9.0) ** 6

    t1, t2, w1, w2 = time(1.0), time(3.0), wings(1.0), wings(3.0)
    members = [(t1, 2.0), (t2, 2.0), (t1, 5.0), (t2, 9.0), (t1, 11.0)]
    ws = [w1 if t is t1 else w2 for t, _ in members]
    d = np.array([d for _, d in members])
    k0 = np.full(d.size, math.sqrt(120.0))  # the live edge of equal gaps at T = 1
    top = math.sqrt(1500.0) + 80.0 * math.pi / d
    wave, n = specfun._j0_plus_j2_wave, specfun._RAY_Y.size
    together = specfun._rays(f, wave, members, ws, k0, top)
    row = calls[0][2]
    assert row % 15 == 0 and calls == [("time", 1.0, row), ("time", 3.0, row),
                                       ("wings", 1.0, 3 * n + row), ("wings", 3.0, 2 * n + row)]
    for t in (t1, t2):
        ids = [i for i, (tm, _) in enumerate(members) if tm is t]
        alone = specfun._rays(f, wave, [members[i] for i in ids], [ws[i] for i in ids], k0[ids],
                              top[ids])
        value, error, absint, evals = (x[ids] for x in together)
        assert np.array_equal(value, alone[0]) and np.array_equal(evals, alone[3])
        for x, y in ((error, alone[1]), (absint, alone[2])):
            assert np.all(np.abs(x - y) <= 2.0 * np.finfo(float).eps * y)


def test_integrate_gaussian_moment():
    spec = DampedKernelSpec(1.0, (), **alone(with_abs(lambda k: np.exp(-k * k))))
    (res,) = integrate_damped_group(spec)
    assert abs(res.value - math.sqrt(math.pi) / 2.0) <= 1e-12
    assert res.abs_error_estimate >= 0
    assert res.evaluations > 0


def test_integrate_k3_gaussian():
    spec = DampedKernelSpec(1.0, (), **alone(with_abs(lambda k: k ** 3 * np.exp(-k * k))))
    (res,) = integrate_damped_group(spec)
    assert res.value == pytest.approx(0.5, abs=1e-13)


def romberg_reference(f, a, b, n_levels=20):
    # fixed-step Romberg with 2^20 intervals at the base level
    n = 2 ** n_levels
    xs = np.linspace(a, b, n + 1)
    fx = f(xs)
    rows = []
    h = (b - a)
    # trapezoid sums at successively halved steps via subsampling
    for lev in range(10):
        step = 2 ** (n_levels - 9 + lev)  # coarse -> fine
        sub = fx[::2 ** (9 - lev)]
        hh = (b - a) / (len(sub) - 1)
        rows.append(hh * (sub.sum() - 0.5 * (sub[0] + sub[-1])))
    # Richardson
    table = [rows]
    for m in range(1, len(rows)):
        prev = table[-1]
        table.append([(4 ** m * prev[i + 1] - prev[i]) / (4 ** m - 1)
                      for i in range(len(prev) - 1)])
    return table[-1][0]


def test_integrate_oscillatory_vs_romberg():
    f = lambda k: np.exp(-k * k) * spherical_bessel_j0(10.0 * k)[0]
    spec = DampedKernelSpec(1.0, (2 * math.pi / 10.0,), **alone(with_abs(f)))
    (res,) = integrate_damped_group(spec)
    ref = romberg_reference(f, 0.0, 30.0)
    assert abs(res.value - ref) <= 1e-10


def test_integrate_linearity():
    f1 = lambda k: np.exp(-0.8 * k * k)
    f2 = lambda k: k ** 2 * np.exp(-0.8 * k * k) * np.cos(4.0 * k)
    mk = lambda f: DampedKernelSpec(0.8, (2 * math.pi / 4.0,), **alone(with_abs(f)))
    a, b = 1.7, -2.4
    lhs, r1, r2 = (integrate_damped_group(mk(f))[0].value
                   for f in (lambda k: a * f1(k) + b * f2(k), f1, f2))
    assert abs(lhs - (a * r1 + b * r2)) <= 1e-12


def test_fixed_group_refines_a_member_that_misses_from_its_panel_set(monkeypatch):
    # int_0^inf e^{-k^2/2} cos(w k) dk = sqrt(pi/2) e^{-w^2/2}: on 8 panels
    # of [0, 12] w = 1 meets the tolerance in one pass, w = 3 misses, refines
    # through _adaptive_gk seeded with those panels, and lands within its error
    runs = []
    real = specfun._adaptive_gk

    def spy(f, breakpoints, atol, rtol, max_panels, kernel, members, prior):
        runs.append((breakpoints.size, max_panels, len(members), prior[0].size))
        return real(f, breakpoints, atol, rtol, max_panels, kernel, members, prior)

    monkeypatch.setattr(specfun, "_adaptive_gk", spy)
    times = [(lambda k, w=w: ((np.cos(w * k), 1.0 + w * k), (np.exp(-0.5 * k * k),) * 2), 0.0)
             for w in (1.0, 3.0)]
    edges = np.linspace(0.0, 12.0, 9)
    quads = specfun.integrate_fixed_group(lambda k: np.ones_like(k), edges, None, times, 1e-30)
    assert runs == [(0, 4008, 1, 8)]
    for w, quad in zip((1.0, 3.0), quads):
        exact = math.sqrt(math.pi / 2.0) * math.exp(-0.5 * w * w)
        assert isinstance(quad, QuadratureResult)
        assert 1e-30 <= quad.abs_error_estimate <= 1e-10 * exact
        assert abs(quad.value - exact) <= quad.abs_error_estimate
    assert quads[0].evaluations == 120 < quads[1].evaluations


def test_quadrature_result_validation():
    with pytest.raises(ValueError):
        QuadratureResult(value=1.0, abs_error_estimate=-1.0, evaluations=10)
    with pytest.raises(ValueError):
        QuadratureResult(value=1.0, abs_error_estimate=0.0, evaluations=0)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        DampedKernelSpec(-1.0, (), **alone(lambda k: k))
    with pytest.raises(ValueError):
        DampedKernelSpec(1.0, (0.0,), **alone(lambda k: k))


def test_kernel_spec_rejects_a_member_without_a_time():
    # its integrand is the scale that every member's time factors multiply
    time = lambda k: ((np.exp(-k * k), np.exp(-k * k)),)
    with pytest.raises(ValueError, match="each with a time and d >= 0"):
        DampedKernelSpec(1.0, (), lambda k: k, members=((time, 0.0), (None, 0.0)))
    DampedKernelSpec(1.0, (), lambda k: k, members=((time, 0.0), (time, 1.0)))


def test_nonconvergence_carries_best_estimate():
    # a discontinuous comb the panel scheme cannot resolve to 1e-10
    rough = lambda k: np.exp(-k * k) * np.sign(np.sin(1000.0 * k) + 0.1)
    spec = DampedKernelSpec(1.0, (), **alone(with_abs(rough)))
    (err,) = integrate_damped_group(spec, rtol=1e-12, atol=1e-300, max_panels=64)
    assert isinstance(err, QuadratureConvergenceError)
    assert isinstance(err.result, QuadratureResult)
    assert err.result.abs_error_estimate > 0


# ----------------------------------------------------------------------------
# The adaptive GK15 loop
# ----------------------------------------------------------------------------

def _counting(f):
    calls = []

    def g(k):
        calls.append(np.size(k))
        v = f(k)
        return v, np.abs(v)
    return g, calls


def adaptive_gk_reference(f, breakpoints, atol, rtol, max_panels=4000,
                          roundoff_exit=True):
    # the list-of-tuples version the panel arrays replaced; without the
    # roundoff exit it is the rule that split on to max_panels.  The panels
    # stay in the array version's order, so numpy sums of them give its bits.
    from vharvest.specfun import _gk15_panels
    f = with_abs(f)
    lo = np.asarray(breakpoints[:-1], dtype=float)
    hi = np.asarray(breakpoints[1:], dtype=float)
    vals, errs, absl, n = _gk15_panels(f, lo, hi)
    panels = list(zip(lo, hi, vals[0], errs[0], absl[0]))
    evals = n
    while True:
        total = sum(p[2] for p in panels)
        toterr = sum(p[3] for p in panels)
        tol = max(atol, rtol * abs(total))
        if toterr <= tol:
            break
        floor = 50.0 * np.finfo(float).eps * sum(p[4] for p in panels)
        if roundoff_exit and floor >= tol and toterr - floor <= tol:
            break
        if len(panels) >= max_panels:
            break
        panels.sort(key=lambda p: p[3])
        n_split = min(16, max(1, len(panels) // 8))
        worst = panels[-n_split:]
        panels = panels[:-n_split]
        los, his = [], []
        for a, b, _, _, _ in worst:
            m = 0.5 * (a + b)
            los += [a, m]
            his += [m, b]
        vals, errs, absl, n = _gk15_panels(f, np.array(los), np.array(his))
        evals += n
        panels.extend(zip(los, his, vals[0], errs[0], absl[0]))
    val, err, absint = (np.array([p[i] for p in panels]).sum() for i in (2, 3, 4))
    return val, float(err), float(absint), evals


@pytest.mark.parametrize("f, breakpoints, max_panels", [
    (lambda k: np.exp(-k) * np.cos(3.0 * k), np.linspace(0.0, 40.0, 5), 4000),
    (lambda k: k ** 3 * np.exp(-0.5 * k * k) * np.exp(7.0j * k), np.linspace(0.0, 12.0, 4), 4000),
    (lambda k: 1.0 / np.sqrt(k + 1e-9), np.geomspace(1e-6, 1.0, 6), 4000),
    (lambda k: np.exp(-k * k) * np.sign(np.sin(1000.0 * k) + 0.1), np.linspace(0.0, 6.0, 9), 200),
])
def test_adaptive_gk_matches_list_version(f, breakpoints, max_panels):
    counted, calls = _counting(f)
    val, err, absint, evals = _adaptive_gk(counted, breakpoints, 1e-300, 1e-12,
                                           max_panels=max_panels)
    ref = adaptive_gk_reference(f, breakpoints, 1e-300, 1e-12, max_panels=max_panels)
    # same panels split in the same order; only the summation order differs
    assert evals == ref[3] == sum(calls) and evals % 15 == 0
    tol = 64 * np.finfo(float).eps
    assert abs(val - ref[0]) <= tol * ref[2]
    assert err == pytest.approx(ref[1], rel=tol)
    assert absint == pytest.approx(ref[2], rel=tol)


def test_adaptive_gk_honours_max_panels():
    rough = lambda k: np.exp(-k * k) * np.sign(np.sin(1000.0 * k) + 0.1)
    breakpoints = np.linspace(0.0, 6.0, 9)
    for max_panels in (8, 50, 300):
        f, calls = _counting(rough)
        _, err, _, evals = _adaptive_gk(f, breakpoints, 1e-300, 1e-14,
                                        max_panels=max_panels)
        assert err > 0.0
        # every evaluation is one GK15 node: 15 per panel evaluated
        assert evals == sum(calls) and evals % 15 == 0
        evaluated = evals // 15
        initial = breakpoints.size - 1
        # each split evaluates two halves and adds one panel net
        final = initial + (evaluated - initial) // 2
        assert max_panels <= final < max_panels + 16


def test_adaptive_gk_roundoff_exit_below_the_floor():
    # |value| is 1.6e-3 of the integral of |f|, so rtol 1e-12 of it (3e-15)
    # lies under the floor 50 eps x integral of |f| (2.2e-14), which no
    # split can lower
    f = lambda k: k ** 3 * np.exp(-0.5 * k * k) * np.exp(7.0j * k)
    breakpoints = np.linspace(0.0, 12.0, 4)
    val, err, absint, evals = _adaptive_gk(with_abs(f), breakpoints, 1e-300, 1e-12)
    full = adaptive_gk_reference(f, breakpoints, 1e-300, 1e-12, roundoff_exit=False)
    # each split evaluates two halves and adds one panel net
    panels = 3 + (evals // 15 - 3) // 2
    assert panels < 4000 <= 3 + (full[3] // 15 - 3) // 2
    assert err >= 50.0 * np.finfo(float).eps * absint > 1e-12 * abs(val)
    assert abs(val - full[0]) <= err


@pytest.mark.parametrize("f, breakpoints", [
    (lambda k: np.exp(-k) * np.cos(3.0 * k), np.linspace(0.0, 40.0, 5)),
    (lambda k: 1.0 / np.sqrt(k + 1e-9), np.geomspace(1e-6, 1.0, 6)),
    (lambda k: k * k * np.exp(-k * k) * np.exp(1.5j * k), np.linspace(0.0, 8.0, 3)),
])
def test_adaptive_gk_above_the_floor_keeps_the_old_rule(f, breakpoints):
    val, err, absint, evals = _adaptive_gk(with_abs(f), breakpoints, 1e-300, 1e-12)
    old = adaptive_gk_reference(f, breakpoints, 1e-300, 1e-12, roundoff_exit=False)
    assert err <= 1e-12 * abs(val)
    assert (val, err, absint, evals) == old


@pytest.mark.parametrize("l, a0, ak", [
    (0, 0.7, 2.0), (0, 0.7, 9.0), (2, 0.7, 9.0), (0, 0.7, 19.0), (2, 0.7, 19.0),
    (0, 0.4, 3.0), (0, 0.4, 11.0), (2, 0.4, 11.0),
])
def test_radial_bruteforce_stops_at_its_roundoff_floor(l, a0, ak):
    # the points whose value cancels below the floor used to split on to
    # 4000 panels (114k-119k evaluations)
    k = ak / a0
    brute, err, evals = radial_bruteforce(l, k, a0)
    closed = radial_overlap(l, k, a0)
    assert evals < 20_000
    assert abs(closed - brute) <= max(1e-10 * abs(closed), 10.0 * err)
    assert abs(closed - brute) <= 1e-10 * radial_overlap(0, 0.0, a0)
