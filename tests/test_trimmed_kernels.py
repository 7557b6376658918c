"""The engine's time kernel and GK15 row reduce make fewer array calls
than their straightforward forms (``reference_kernels``), on
the same arithmetic: each returns those forms' bits, signed zeros and NaN
payloads included, on random inputs, rows with zeros, NaN and inf, scales
from 1e-300 to 1e250, unequal gaps and delays of both signs.  GK15's block
reduce, on other arithmetic, agrees with the row reduce within each
panel's roundoff floor on the same rows.  And j_0 keeps the bits it had
before j_1..j_4 came from scipy."""

import numpy as np
import reference_kernels as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from vharvest import specfun

SCALES = st.sampled_from([1.0, 1e-300, 1e-150, 3e-7, 4e12, 1e250])


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(0.0, 1e3) | st.just(0.0), st.booleans(),
       st.just(0.0) | st.floats(-60.0, 60.0), st.sampled_from([40.0, 400.0, 1e5]),
       st.integers(1, 40), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_time_kernel_has_the_reference_bits(T, t, negative, d_omega, reach, n, seed, scalar):
    # equal gaps (one Faddeeva call) and unequal ones; nodes out to T k =
    # reach: near and far Faddeeva arguments, a live and a dead Gaussian;
    # and a scalar k (numpy scalars)
    t_ba = -t if negative else t
    k = np.random.default_rng(seed).uniform(0.0, 1.0, n) ** 2 * reach / T
    x = float(k[0]) if scalar else k
    with np.errstate(all="ignore"):
        got = specfun.scaled_time_kernel(x, t_ba, T, d_omega=d_omega)
        want = ref.scaled_time_kernel(x, t_ba, T, d_omega=d_omega)
    assert type(got[0]) is type(want[0])
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


ROW_KINDS = ("random", "smooth", "even", "constant", "zero", "nan", "inf")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ROW_KINDS), SCALES, st.booleans(), st.integers(1, 40),
       st.integers(0, 2 ** 32 - 1))
def test_gk15_reduce_row_has_the_reference_bits(kind, scale, real, p, seed):
    # one member's row of p panels: real (L) or complex values, magnitudes
    # at least |value|
    rng = np.random.default_rng(seed)
    x = specfun._XGK
    fv = rng.standard_normal((p, 15)) + (0.0 if real else 1j * rng.standard_normal((p, 15)))
    if kind == "smooth":
        fv = fv[:, :1] * np.exp(0.3 * x) + fv[:, 1:2] * x
    elif kind == "even":  # first moment exactly 0
        fv = fv + fv[:, ::-1]
    elif kind == "constant":  # |f - mean| is 0 or rounding
        fv = np.repeat(fv[:, :1], 15, axis=1)
    elif kind == "zero":
        fv = np.zeros_like(fv)
    fv = fv * scale
    if kind in ("nan", "inf"):
        fv[rng.integers(p), rng.integers(15)] = np.nan if kind == "nan" else np.inf
    fm = np.abs(fv) * (1.0 + rng.uniform(0.0, 2.0, fv.shape))
    half = rng.uniform(1e-3, 2.0, p)
    with np.errstate(all="ignore"):
        got = specfun._gk15_reduce(fv.ravel(), fm.ravel(), half)
        want = ref.gk15_reduce_row(fv.ravel(), fm.ravel(), half)
    assert all(same_bits(a, b) for a, b in zip(got, want)), kind


def kind_rows(rng, kind, n, p, real, scale=1.0):
    # n rows on p panels of one of ROW_KINDS, real or complex, times scale
    x = specfun._XGK
    v = rng.standard_normal((n, p, 15)) + (0.0 if real else 1j * rng.standard_normal((n, p, 15)))
    if kind == "smooth":
        v = v[..., :1] * np.exp(0.3 * x) + v[..., 1:2] * x
    elif kind == "even":  # first moment exactly 0
        v = v + v[..., ::-1]
    elif kind == "constant":
        v = np.repeat(v[..., :1], 15, axis=2)
    elif kind == "zero":
        v = np.zeros_like(v)
    v = v * scale
    if kind in ("nan", "inf"):
        v[rng.integers(n), rng.integers(p), rng.integers(15)] = np.nan if kind == "nan" else np.inf
    return v.reshape(n, -1)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ROW_KINDS), st.sampled_from(ROW_KINDS), SCALES, st.integers(1, 4),
       st.integers(1, 4), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_gk15_blocks_agree_with_each_row_alone_within_the_floor(
        space, time, scale, n_d, n_t, p, seed):
    # the block's rows kernel(k d) x U of n_d distances and n_t times, a
    # random subset of them, against _gk15_reduce of each row alone (the
    # path of a pair alone): each panel's value within its roundoff floor
    # F = 50 eps x resabs (both sums are within ~17 eps x resabs of the
    # exact value), its resabs within 8 eps, and its error, which amplifies
    # the sums' rounding in |K - G| by up to 300, within 200 F.  A panel
    # that is not finite alone is not finite in the block either, and the
    # other way round; finite rows raise no floating-point warning
    rng = np.random.default_rng(seed)
    sv = kind_rows(rng, space, n_d, p, True)
    u = kind_rows(rng, time, n_t, p, False, scale)
    sm, umag = (np.abs(x) * (1.0 + rng.uniform(0.0, 2.0, x.shape)) for x in (sv, u))
    half = rng.uniform(1e-3, 2.0, p)
    cells = np.argwhere(rng.random((n_d, n_t)) < 0.7)
    at = tuple(cells[rng.permutation(len(cells))].T) if len(cells) else ((0,), (0,))
    bad = "nan" in (space, time) or "inf" in (space, time)
    # U, |U| and U_mag per panel, node and time
    units = [np.ascontiguousarray(x.reshape(n_t, p, -1).transpose(1, 2, 0))
             for x in (u, np.abs(u), umag)]
    with np.errstate(**dict.fromkeys(("divide", "over", "invalid"), "ignore" if bad else "raise")):
        block = specfun._gk15_blocks((sv, sm), units, at, half)
        for n, (d, t) in enumerate(zip(*at)):
            mag = sm[d] * np.abs(u[t]) + np.abs(sv[d]) * umag[t]
            alone = specfun._gk15_reduce(sv[d] * u[t], mag, half)
            floor = specfun._ROUNDOFF * alone[2]
            ok = np.isfinite(alone[0]) & np.isfinite(alone[1]) & np.isfinite(floor)
            for x, y in zip(block, alone):
                assert np.array_equal(np.isfinite(x[n]), np.isfinite(y)), (space, time)
            assert np.all(np.abs(block[0][n] - alone[0])[ok] <= floor[ok])
            assert np.all(np.abs(block[1][n] - alone[1])[ok] <= 200.0 * floor[ok])
            assert np.all(np.abs(block[2][n] - alone[2])[ok] <= 8.0 * np.finfo(float).eps
                          * alone[2][ok])


def test_j0_has_the_reference_bits(rng):
    # x = 0, both sides of the 1e-8 switch and 1e-9 to 1e6, as arrays and scalars
    x = np.concatenate(([0.0, 1e-8, np.nextafter(1e-8, 0.0), np.nextafter(1e-8, 1.0)],
                        np.geomspace(1e-9, 1e6, 200001), 10.0 ** rng.uniform(-9.0, 6.0, 2000)))
    assert same_bits(specfun.spherical_bessel_j0(x)[0], ref.spherical_bessel_j0(x))
    for v in x[::997].tolist():
        got = specfun.spherical_bessel_j0(v)[0]
        assert type(got) is float and same_bits(got, ref.spherical_bessel_j0(v)[0])
