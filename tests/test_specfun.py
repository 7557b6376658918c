import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import wofz

from vharvest import specfun
from vharvest.atoms import radial_overlap
from vharvest.oracle import erfc_complex, faddeeva_w, radial_bruteforce
from vharvest.specfun import (DampedKernelSpec, QuadratureConvergenceError,
                              QuadratureResult, _adaptive_gk, _wynn_epsilon,
                              integrate_damped, scaled_time_kernel,
                              spherical_bessel_j, spherical_bessel_j0_plus_j2)

SQRT2 = math.sqrt(2.0)


def with_abs(f):
    # a plain integrand in the quadrature's (value, magnitude) form
    def g(k):
        v = f(k)
        return v, np.abs(v)
    return g


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


def erfc_cf(z: complex) -> complex:
    # Laplace continued fraction, Re z > 0
    cf = 0.0 + 0.0j
    for n in range(90, 0, -1):
        cf = (0.5 * n) / (z + cf)
    return cmath.exp(-z * z) / math.sqrt(math.pi) / (z + cf)


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


def test_faddeeva_lower_half_plane_reflection():
    z = 1.3 - 0.8j
    ref = 2.0 * cmath.exp(-z * z) - faddeeva_w(-z)
    assert faddeeva_w(z) == pytest.approx(ref, rel=1e-13)


def test_faddeeva_lower_half_overflow_raises():
    with pytest.raises(OverflowError):
        faddeeva_w(0.0 - 40.0j)  # exp(-z^2) = exp(1600)


def test_erfc_trivial_and_series():
    assert erfc_complex(0.0) == pytest.approx(1.0, abs=1e-15)
    ref = erfc_series(1.0 + 0j).real
    assert ref == pytest.approx(0.15729920705, abs=1e-11)
    assert erfc_complex(1.0) == pytest.approx(ref, rel=1e-12)


def test_erfc_reflection_spot():
    z = 0.3 + 0.7j
    assert erfc_complex(-z) == pytest.approx(2.0 - erfc_complex(z), rel=1e-13)


def test_erfc_against_continued_fraction():
    for z in (2.8 + 0.4j, 4.0 - 3.0j, 6.0 + 5.0j):
        assert erfc_complex(z) == pytest.approx(erfc_cf(z), rel=1e-12)


def test_erfc_reflection_random(rng):
    # invariant: erfc(z) + erfc(-z) = 2, 1000 samples in |z| <= 20
    for _ in range(1000):
        z = complex(*rng.uniform(-1, 1, 2)) * rng.uniform(0, 20)
        if abs(z.imag) > abs(z.real) and abs(z) > 24:
            continue  # value not representable in doubles
        try:
            s = erfc_complex(z) + erfc_complex(-z)
        except OverflowError:
            continue
        scale = max(1.0, abs(erfc_complex(z)))
        assert abs(s - 2.0) <= 1e-13 * scale


@settings(max_examples=200, deadline=None)
@given(st.complex_numbers(max_magnitude=8.0, allow_nan=False, allow_infinity=False))
def test_erfc_conjugation(z):
    assert erfc_complex(z.conjugate()) == pytest.approx(
        erfc_complex(z).conjugate(), rel=1e-13, abs=1e-300)


# ----------------------------------------------------------------------------
# time kernel
# ----------------------------------------------------------------------------

def naive_bracket(k, t_ba, T, omega):
    def E(t):
        return cmath.exp(1j * k * t) * erfc_complex(
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


def two_wofz_kernel(k, t_ba, T, d_omega):
    # the wings as the difference of two Faddeeva calls, w(c - b + ia) for
    # conj w(b - c + ia), before the reflection w(-conj z) = conj w(z)
    # folded them into one at c = 0
    k = np.asarray(k, dtype=float)
    a = abs(t_ba) / (SQRT2 * T)
    b = T * k / SQRT2
    c = (-1.0 if t_ba < 0.0 else 1.0) * T * d_omega / (2.0 * SQRT2)
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
    # k out to T k = 200, well past the T k > 38 overflow of the bare erfc
    k = np.concatenate([np.linspace(0.0, 200.0 / T, 15001), [38.5 / T, 60.0 / T]])
    assert np.any(T * k > 38.0)
    new, _ = scaled_time_kernel(k, t_ba, T, d_omega=d_omega)
    assert np.array_equal(new, two_wofz_kernel(k, t_ba, T, d_omega))
    for kk in (0.0, 1.3, 45.0 / T):
        assert scaled_time_kernel(kk, t_ba, T, d_omega=d_omega)[0] == complex(
            two_wofz_kernel(kk, t_ba, T, d_omega))


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
    assert spherical_bessel_j(0, 0.0) == 1.0
    assert spherical_bessel_j(2, 0.0) == 0.0
    assert spherical_bessel_j(0, math.pi) == pytest.approx(0.0, abs=1e-16)


def test_bessel_j2_series_value():
    ref = bessel_series_ref(2, 1.0)
    assert ref == pytest.approx(0.0620350520, abs=1e-9)
    assert spherical_bessel_j(2, 1.0) == pytest.approx(ref, rel=1e-13)


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
        assert spherical_bessel_j(l, x) == pytest.approx(ref, rel=6e-13, abs=1e-250)
    for _ in range(300):
        l = int(rng.integers(0, 5))
        x = rng.uniform(6.0, 200.0)
        ref = bessel_recurrence_ref(l, x)
        assert spherical_bessel_j(l, x) == pytest.approx(ref, rel=1e-11, abs=1e-18)


def test_bessel_recurrence(rng):
    xs = np.geomspace(0.1, 100.0, 500)
    for l in (1, 2, 3):
        lhs = spherical_bessel_j(l - 1, xs) + spherical_bessel_j(l + 1, xs)
        rhs = (2 * l + 1) / xs * spherical_bessel_j(l, xs)
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        scale = np.maximum(scale, np.abs(spherical_bessel_j(l, xs)))
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-11


def test_j0_plus_j2_matches_the_two_calls():
    # dense in [0, 500], with both sides of the x = 5 series/trig switch
    x = np.concatenate([np.linspace(0.0, 500.0, 500001),
                        np.linspace(4.9, 5.1, 20001),
                        [0.0, np.nextafter(5.0, 0.0), 5.0, np.nextafter(5.0, 6.0)]])
    fused, mag = spherical_bessel_j0_plus_j2(x)
    j0, j2 = spherical_bessel_j(0, x), spherical_bessel_j(2, x)
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
        spherical_bessel_j(0, 5.0) + spherical_bessel_j(2, 5.0), abs=1e-15)
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
        spherical_bessel_j(5, 1.0)
    with pytest.raises(ValueError):
        spherical_bessel_j(1, -0.5)


# ----------------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------------

def test_integrate_gaussian_moment():
    spec = DampedKernelSpec(1.0, (), with_abs(lambda k: np.exp(-k * k)))
    res = integrate_damped(spec)
    assert abs(res.value - math.sqrt(math.pi) / 2.0) <= 1e-12
    assert res.abs_error_estimate >= 0
    assert res.evaluations > 0


def test_integrate_k3_gaussian():
    spec = DampedKernelSpec(1.0, (), with_abs(lambda k: k ** 3 * np.exp(-k * k)))
    res = integrate_damped(spec)
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
    f = lambda k: np.exp(-k * k) * spherical_bessel_j(0, 10.0 * k)
    spec = DampedKernelSpec(1.0, (2 * math.pi / 10.0,), with_abs(f))
    res = integrate_damped(spec)
    ref = romberg_reference(f, 0.0, 30.0)
    assert abs(res.value - ref) <= 1e-10


def test_integrate_linearity():
    f1 = lambda k: np.exp(-0.8 * k * k)
    f2 = lambda k: k ** 2 * np.exp(-0.8 * k * k) * np.cos(4.0 * k)
    mk = lambda f: DampedKernelSpec(0.8, (2 * math.pi / 4.0,), with_abs(f))
    a, b = 1.7, -2.4
    lhs = integrate_damped(mk(lambda k: a * f1(k) + b * f2(k))).value
    rhs = a * integrate_damped(mk(f1)).value + b * integrate_damped(mk(f2)).value
    assert abs(lhs - rhs) <= 1e-12


def test_quadrature_result_validation():
    with pytest.raises(ValueError):
        QuadratureResult(value=1.0, abs_error_estimate=-1.0, evaluations=10)
    with pytest.raises(ValueError):
        QuadratureResult(value=1.0, abs_error_estimate=0.0, evaluations=0)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        DampedKernelSpec(-1.0, (), lambda k: k)
    with pytest.raises(ValueError):
        DampedKernelSpec(1.0, (0.0,), lambda k: k)


def test_nonconvergence_carries_best_estimate():
    # a discontinuous comb the panel scheme cannot resolve to 1e-10
    rough = lambda k: np.exp(-k * k) * np.sign(np.sin(1000.0 * k) + 0.1)
    spec = DampedKernelSpec(1.0, (), with_abs(rough))
    with pytest.raises(QuadratureConvergenceError) as err:
        integrate_damped(spec, rtol=1e-12, atol=1e-300, max_panels=64)
    assert isinstance(err.value.result, QuadratureResult)
    assert err.value.result.abs_error_estimate > 0


# ----------------------------------------------------------------------------
# Wynn epsilon and the adaptive GK15 loop
# ----------------------------------------------------------------------------

def wynn_reference(partial_sums):
    # the list-and-loop Wynn table the array version replaced
    s = [complex(v) for v in partial_sums]
    if len(s) < 3:
        return s[-1], abs(s[-1] - s[0])
    scale = max(abs(v) for v in s)
    if scale == 0.0:
        return 0.0 + 0.0j, 0.0
    floor = 4.0 * np.finfo(float).eps * scale
    prev = [0.0 + 0.0j] * (len(s) + 1)
    curr = list(s)
    best = s[-1]
    best_err = abs(s[-1] - s[-2])
    col = 0
    while len(curr) >= 2:
        nxt = []
        converged = False
        for j in range(len(curr) - 1):
            diff = curr[j + 1] - curr[j]
            if col % 2 == 0 and abs(diff) <= floor:
                if abs(diff) <= best_err:
                    best, best_err = curr[j + 1], max(abs(diff), floor)
                converged = True
                break
            if diff == 0:
                converged = True
                break
            nxt.append(prev[j + 1] + 1.0 / diff)
        if converged or not nxt:
            break
        prev, curr = curr, nxt
        col += 1
        if col % 2 == 0 and len(curr) >= 2:
            cand_err = abs(curr[-1] - curr[-2])
            if cand_err < best_err:
                best, best_err = curr[-1], cand_err
    return best, max(best_err, floor)


def _assert_wynn_agrees(seq, limit=None):
    val, err = _wynn_epsilon(seq)
    ref_val, ref_err = wynn_reference(seq)
    # the array table reciprocates with numpy's complex division, which can
    # differ from Python's in the last bit
    assert abs(val - ref_val) <= 64 * np.finfo(float).eps * max(1.0, abs(ref_val))
    assert err == pytest.approx(ref_err, rel=1e-6, abs=1e-15)
    if limit is not None:
        assert abs(val - limit) <= max(10.0 * err, 1e-13)
    return val, err


@pytest.mark.parametrize("n_terms", [5, 8, 12, 40])
def test_wynn_alternating_log2(n_terms):
    # short tables stop on the candidate rule, long ones on the roundoff floor
    terms = [(-1) ** (n + 1) / n for n in range(1, n_terms + 1)]
    _assert_wynn_agrees(np.cumsum(terms), math.log(2.0))


@pytest.mark.parametrize("n_terms", [6, 11, 60])
def test_wynn_leibniz_pi_over_4(n_terms):
    terms = [(-1) ** n / (2 * n + 1) for n in range(n_terms)]
    _assert_wynn_agrees(np.cumsum(terms), math.pi / 4.0)


def test_wynn_complex_oscillatory_tail():
    # partial sums of a damped complex Fourier tail, as _oscillatory_tail feeds it
    n = np.arange(1, 77)
    terms = (-1.0) ** n * np.exp(0.3j * n) / n ** 1.5
    _assert_wynn_agrees(np.cumsum(terms))


def test_wynn_constant_sequence_stops_on_zero_difference():
    val, err = _assert_wynn_agrees([0.25 + 0.5j] * 12)
    assert val == 0.25 + 0.5j
    assert err == pytest.approx(4.0 * np.finfo(float).eps * abs(0.25 + 0.5j))


def test_wynn_zero_difference_stops_the_table():
    # a zero term mid-sequence stops column 0 and returns the sum before it
    val, err = _assert_wynn_agrees(np.cumsum([1.0, -0.5, 0.0, 0.25, -0.125]))
    assert val == 0.5
    # two equal leading terms give a zero difference in column 1, which stops
    # the table before any extrapolation: the last partial sum comes back
    seq = [1.0, 2.0, 3.0] + list(3.0 + np.cumsum([(-1) ** n / (n + 1) for n in range(8)]))
    val, err = _assert_wynn_agrees(seq)
    assert val == seq[-1] and err == pytest.approx(0.125)


def test_wynn_all_zero_sequence():
    assert _wynn_epsilon([0.0] * 9) == (0.0 + 0.0j, 0.0)
    assert wynn_reference([0.0] * 9) == (0.0 + 0.0j, 0.0)


def test_wynn_short_sequences():
    for seq in ([1.5], [1.0, 0.5 + 0.25j]):
        val, err = _wynn_epsilon(seq)
        ref_val, ref_err = wynn_reference(seq)
        assert val == ref_val and err == ref_err


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
    panels = list(zip(lo, hi, vals, errs, absl))
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
        panels.extend(zip(los, his, vals, errs, absl))
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
