import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from vharvest import harvesting, specfun
from vharvest.angular import EulerAngles
from vharvest.atoms import SwitchingKind
from vharvest.harvesting import ModelKind, compute_terms, compute_terms_many
from vharvest.specfun import QuadratureConvergenceError
from vharvest.survey import (Axis, ScanGrid, ScanResult, ScanRow, harvestability_map,
                             model_comparison, optimal_orientations,
                             orientation_scan, orientation_score,
                             pair_from_params, run_grid, spacetime_map)

FIXED = {"a0_omega": 1e-3, "omega_T": 1.0, "d_over_T": 1.0, "tba_over_T": 1.0}


def test_axis_values_and_validation():
    ax = Axis("d_over_T", 1.0, 10.0, 4, "log")
    assert np.allclose(ax.values(), np.geomspace(1.0, 10.0, 4))
    with pytest.raises(ValueError):
        Axis("unknown", 0, 1, 5)
    with pytest.raises(ValueError):
        Axis("d_over_T", 0, 1, 1)
    with pytest.raises(ValueError):
        Axis("d_over_T", 0.0, 1.0, 5, "log")


@pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (-math.inf, 1.0),
                                   (math.nan, 1.0), (1.0, math.nan)])
def test_axis_rejects_non_finite_bounds_by_name(lo, hi):
    with pytest.raises(ValueError, match="lo and hi must be finite"):
        Axis("d_over_T", lo, hi, 3)


def test_grid_validation():
    with pytest.raises(ValueError):
        ScanGrid(axes=(Axis("theta", 0, 1, 3), Axis("theta", 0, 1, 3)),
                 fixed={}, model=ModelKind.EM_DIPOLE)
    with pytest.raises(ValueError):
        ScanGrid(axes=(Axis("theta", 0, 1, 3),), fixed={"theta": 1.0},
                 model=ModelKind.EM_DIPOLE)


def test_orientation_scan_fig3_features():
    axis = Axis("theta", 0.0, 2.0 * math.pi, 25)
    res = orientation_scan(FIXED, axis)
    ns = [r.n for r in res.rows]
    # zeros at pi/2 and 3pi/2 (indices 6 and 18 of 25 points on [0, 2pi])
    assert ns[6] == 0.0
    assert ns[18] == 0.0
    assert ns[0] > 0 and ns[12] > 0
    # symmetric under theta -> 2pi - theta
    for i in range(25):
        assert ns[i] == pytest.approx(ns[24 - i], rel=1e-10, abs=1e-30)


def test_orientation_scan_distance_ordering():
    axis = Axis("theta", 0.0, math.pi, 9)
    near = orientation_scan(FIXED, axis)
    far_fixed = dict(FIXED, d_over_T=1.25, tba_over_T=1.25)
    far = orientation_scan(far_fixed, axis)
    for a, b in zip(near.rows, far.rows):
        assert b.n <= a.n + 1e-30


def test_rows_clamp_invariant():
    res = orientation_scan(FIXED, Axis("theta", 0.0, 2.0 * math.pi, 13))
    for row in res.rows:
        assert row.n == max(0.0, row.n2)


def test_grid_determinism_and_threads():
    grid = ScanGrid(axes=(Axis("omega_T", 0.8, 2.0, 3),
                          Axis("d_over_T", 0.5, 2.5, 3)),
                    fixed={"a0_omega": 1e-3, "tba_over_T": 1.0},
                    model=ModelKind.UDW_SCALAR)
    r1 = run_grid(grid, threads=1)
    r2 = run_grid(grid, threads=1)
    r4 = run_grid(grid, threads=4)
    assert r1.rows == r2.rows
    assert r1.rows == r4.rows
    assert len(r1.rows) == 9


def test_spacetime_map_symmetry_in_delay_sign():
    p_plus = pair_params = {"a0_omega": 1e-3, "omega_T": 2.0,
                            "d_over_T": 2.0, "tba_over_T": 1.5}
    p_minus = dict(pair_params, tba_over_T=-1.5)
    from vharvest.harvesting import compute_terms
    t_plus = compute_terms(pair_from_params(p_plus, ModelKind.EM_DIPOLE),
                           include_cross=False)
    t_minus = compute_terms(pair_from_params(p_minus, ModelKind.EM_DIPOLE),
                            include_cross=False)
    assert abs(t_plus.m) == pytest.approx(abs(t_minus.m), rel=1e-12)
    assert t_plus.negativity2 == pytest.approx(t_minus.negativity2, rel=1e-10)


def test_spacetime_map_metadata():
    res = spacetime_map(Axis("d_over_T", 1.0, 3.0, 3),
                        Axis("tba_over_T", 0.0, 2.0, 3), omega_T=2.0)
    assert res.metadata["sigma_over_T"] == pytest.approx(1.0 / math.sqrt(2.0))
    assert len(res.rows) == 9


def test_harvestability_map_channels():
    res = harvestability_map(Axis("omega_T", 1.0, 6.0, 3),
                             Axis("d_over_T", 0.5, 2.0, 3), tba_over_T=1.0)
    lo, hi = res.metadata["lightcone_d"]
    assert hi - lo == pytest.approx(16.0 / math.sqrt(2.0))
    for row in res.rows:
        assert row.harvestable in (True, False)
        assert row.converged


def test_harvestability_map_band_is_where_resolve_does_not_crop():
    # the band of light contact is |d - |t_BA|| < 8 sigma, as resolve()
    # has it: at t_BA = -10 T it lies about d = 10 T, not about d = -10 T
    res = harvestability_map(Axis("omega_T", 1.0, 2.0, 2),
                             Axis("d_over_T", 9.0, 11.0, 2), tba_over_T=-10.0)
    lo, hi = res.metadata["lightcone_d"]
    assert lo < 10.0 < hi
    auto, sigma = SwitchingKind("auto"), 1.0 / math.sqrt(2.0)
    for d, variant in ((lo - 1e-9, "cropped_gaussian"), (lo + 1e-9, "gaussian"),
                       (hi - 1e-9, "gaussian"), (hi + 1e-9, "cropped_gaussian")):
        assert auto.resolve(d, -10.0, sigma).variant == variant


def _rows_of_a_pair_per_point(grid, coupling=1.0, rtol=1e-10):
    # the rows of a grid from compute_terms_many on pair_from_params of each
    # point: the points that miss the tolerance retried together at 1e3 x
    # the tolerances, and each row from its HarvestTerms
    names = [a.name for a in grid.axes]
    coords = list(itertools.product(*(a.values().tolist() for a in grid.axes)))
    pairs = [pair_from_params({**grid.fixed, **dict(zip(names, c))}, grid.model, coupling)
             for c in coords]
    auto = SwitchingKind("auto")
    results = compute_terms_many(pairs, switching=auto, include_cross=False, rtol=rtol)
    missed = [i for i, r in enumerate(results) if isinstance(r, QuadratureConvergenceError)]
    retried = dict(zip(missed, compute_terms_many(
        [pairs[i] for i in missed], switching=auto, include_cross=False, atol=1e-13,
        rtol=rtol * 1e3)))
    rows = []
    for i, c in enumerate(coords):
        t = retried.get(i, results[i])
        rows.append(ScanRow(c, math.nan, math.nan, math.nan, math.nan, False, False, math.inf)
                    if isinstance(t, QuadratureConvergenceError) else ScanRow(
                        c, float(t.l_aa), float(t.l_bb), float(abs(t.m)), float(t.negativity2),
                        t.harvestable(), i not in retried,
                        math.exp(t.log_scale) * t.negativity2_error_scaled()))
    return rows


@pytest.mark.parametrize("axes, fixed, model, coupling, rtol", [
    # d = 0 and B at -z, at coupling 0.1
    ((Axis("d_over_T", -4.0, 4.0, 5),), {"tba_over_T": 2.0}, ModelKind.EM_DIPOLE, 0.1, 1e-10),
    # negative t_BA, with cropped and uncropped points (auto switching)
    ((Axis("tba_over_T", -12.0, 12.0, 4), Axis("d_over_T", 0.5, 4.0, 3)), {},
     ModelKind.UDW_SCALAR, 1.0, 1e-10),
    # points that share one integral
    ((Axis("theta", 0.0, 3.0, 4),), {"d_over_T": 2.0, "tba_over_T": 2.0},
     ModelKind.EM_DIPOLE, 1.0, 1e-10),
    # one M group per row
    ((Axis("a0_omega", 1e-4, 1e-2, 3, "log"), Axis("d_over_T", 0.5, 4.0, 3)), {},
     ModelKind.EM_DIPOLE, 1.0, 1e-10),
    ((Axis("omega_T", 0.5, 12.0, 3), Axis("d_over_T", 1.0, 6.0, 3)), {"tba_over_T": -3.0},
     ModelKind.UDW_DERIVATIVE, 1.0, 1e-10),
])
def test_grid_rows_equal_the_rows_of_a_pair_per_point(axes, fixed, model, coupling, rtol):
    grid = ScanGrid(axes=axes, fixed=fixed, model=model)
    rows = run_grid(grid, coupling=coupling, rtol=rtol).rows
    assert rows == _rows_of_a_pair_per_point(grid, coupling, rtol)
    assert all(type(x) in (float, bool) for r in rows for x in (
        r.l_aa, r.l_bb, r.abs_m, r.n2, r.harvestable, r.converged, r.quad_error))


def test_grid_retries_as_a_pair_per_point_does(monkeypatch):
    # a ripple of 3e-9 on the time factor of the member at d = 3 T, which no
    # head resolves: that point misses rtol 1e-10 and is retried, in the
    # grid as in a pair per point
    spec_of = harvesting._spec

    def rippled(time):
        def f(k):
            (value, mag), *rest = time(k)
            return (value * (1.0 + 3e-9 * np.sin(1e7 * k)), mag), *rest
        return f

    def spec(share, members):
        s = spec_of(share, members)
        return s if share[0] != "M" else replace(s, members=tuple(
            (rippled(time) if d == 3.0 else time, d) for time, d in s.members))

    monkeypatch.setattr(harvesting, "_spec", spec)
    grid = ScanGrid(axes=(Axis("d_over_T", 1.0, 5.0, 5),),
                    fixed={"omega_T": 2.0, "tba_over_T": 3.0}, model=ModelKind.UDW_SCALAR)
    rows = run_grid(grid).rows
    assert rows == _rows_of_a_pair_per_point(grid)
    assert [r.converged for r in rows] == [True, True, False, True, True]


@pytest.mark.parametrize("axes, fixed, coupling", [
    ((Axis("omega_T", -1.0, 2.0, 4),), {"d_over_T": 2.0}, 1.0),
    ((Axis("a0_omega", 1e-3, 1e3, 4, "log"),), {"d_over_T": 2.0}, 1.0),
    ((Axis("d_over_T", 1.0, 2.0, 2),), {"omega_T": 0.0}, 1.0),
    ((Axis("d_over_T", 1.0, 2.0, 2),), {"theta": math.nan}, 1.0),
    ((Axis("omega_T", 1e-300, 1.0, 3),), {"a0_omega": 1e300}, 1.0),
    ((Axis("d_over_T", 1.0, 2.0, 2),), {}, 0.0),
])
def test_grid_rejects_each_point_with_the_words_of_its_pair(axes, fixed, coupling):
    # without a pair per point, a grid rejects its first bad point in raster
    # order as building and computing that point's pair does
    grid = ScanGrid(axes=axes, fixed=fixed, model=ModelKind.UDW_SCALAR)
    names = [a.name for a in axes]
    with pytest.raises(ValueError) as want:
        for c in itertools.product(*(a.values().tolist() for a in axes)):
            compute_terms(pair_from_params({**fixed, **dict(zip(names, c))}, grid.model,
                                           coupling), include_cross=False)
    with pytest.raises(ValueError) as got:
        run_grid(grid, coupling=coupling)
    assert str(got.value) == str(want.value)


def test_model_comparison_structure():
    res = model_comparison(Axis("d_over_T", 1.0, 3.0, 3), omega_T=2.0,
                           tba_over_T=1.0)
    assert len(res.rows) == 3
    d, em, udw, dv = res.rows[0]
    assert d == 1.0
    assert em.n >= 0 and udw.n >= 0 and dv.n >= 0
    assert res.metadata["models"] == ["em", "udw", "derivative"]


# ----------------------------------------------------------------------------
# optimal orientations
# ----------------------------------------------------------------------------

def test_optimal_orientations_count():
    assert len(optimal_orientations()) == 96


def test_optimal_orientations_first_family_head():
    first = optimal_orientations()[0]
    assert first.psi == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert first.theta == pytest.approx(1.2310, abs=1e-4)
    assert first.phi == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_optimal_orientations_beat_identity():
    identity_score = orientation_score(EulerAngles())
    assert identity_score == pytest.approx(3.0, abs=1e-14)
    for angles in optimal_orientations():
        assert orientation_score(angles) >= identity_score
        # these families sit at the global maximum of the projection sum
        assert orientation_score(angles) == pytest.approx(5.0, abs=1e-12)


def test_optimal_orientations_reduce_end_on_em_harvesting():
    # end-on EM pairs: M scales with cos(theta) = +-1/3 or -2/3, so every
    # one of the 96 harvests less than the identity orientation
    pairs = [pair_from_params({**FIXED, "psi": a.psi, "theta": a.theta, "phi": a.phi},
                              ModelKind.EM_DIPOLE)
             for a in [EulerAngles()] + optimal_orientations()]
    identity, *rest = compute_terms_many(pairs, include_cross=False)
    ratios = sorted(abs(t.m) / abs(identity.m) for t in rest)
    assert ratios == pytest.approx([1.0 / 3.0] * 32 + [2.0 / 3.0] * 64, abs=1e-15)


def test_pair_from_params_validation():
    with pytest.raises(ValueError):
        pair_from_params({"a0_omega": -1.0}, ModelKind.EM_DIPOLE)


# ----------------------------------------------------------------------------
# shared time kernels: grid rows against their points alone
# ----------------------------------------------------------------------------

def _assert_rows_match_points_alone(res, model, fixed):
    auto = SwitchingKind("auto")
    names = [a.name for a in res.grid.axes]
    for row in res.rows:
        assert row.converged
        pair = pair_from_params({**fixed, **dict(zip(names, row.coords))}, model)
        alone = compute_terms(pair, switching=auto, include_cross=False)
        scale = math.exp(alone.log_scale)
        err = alone.quadrature_errors
        for got, want, want_err in ((row.l_aa, alone.l_aa, err["l_aa"]),
                                    (row.abs_m, abs(alone.m), err["m"]),
                                    (row.n2, alone.negativity2,
                                     alone.negativity2_error_scaled())):
            assert abs(got - want) <= row.quad_error + scale * want_err
        assert row.harvestable == alone.harvestable()


def test_grid_rows_match_compute_terms_alone():
    fig5a = spacetime_map(Axis("d_over_T", 0.0, 24.0, 6),
                          Axis("tba_over_T", 0.0, 24.0, 6), omega_T=12.0)
    _assert_rows_match_points_alone(fig5a, ModelKind.EM_DIPOLE,
                                    {"omega_T": 12.0, "a0_omega": 1e-3})
    # a0 = a0_omega / omega_T: a0 varies by row
    fig4 = harvestability_map(Axis("omega_T", 0.5, 40.0, 4),
                              Axis("d_over_T", 0.5, 40.0, 6), tba_over_T=10.0)
    _assert_rows_match_points_alone(fig4, ModelKind.EM_DIPOLE,
                                    {"tba_over_T": 10.0, "a0_omega": 1e-3})
    fig7 = model_comparison(Axis("d_over_T", 0.5, 28.0, 8), omega_T=13.0,
                            tba_over_T=10.0)
    fixed = dict(fig7.metadata["fixed"])
    for i, model in enumerate(ModelKind):
        column = ScanResult(grid=fig7.grid, rows=[r[1 + i] for r in fig7.rows])
        _assert_rows_match_points_alone(column, model, fixed)
    # one M group whose rows alone would seed on different panels: at
    # pi/t_BA where t_BA > d_max = 4, and at pi/d_max where not
    for model in (ModelKind.EM_DIPOLE, ModelKind.UDW_SCALAR):
        window = spacetime_map(Axis("d_over_T", 0.5, 4.0, 4),
                               Axis("tba_over_T", 0.0, 16.0, 4), omega_T=1.0, model=model)
        _assert_rows_match_points_alone(window, model, {"omega_T": 1.0, "a0_omega": 1e-3})


def _spy(monkeypatch, module, name, sizes, arg=0):
    real = getattr(module, name)

    def spy(*args, **kwargs):
        sizes.append(np.asarray(args[arg]))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def test_orientation_scan_integrates_one_m(monkeypatch):
    # 50 orientations share d and t_BA: one M integral, the calls of one pair
    fixed = {"a0_omega": 1e-3, "omega_T": 1.0, "d_over_T": 1.15, "tba_over_T": 1.15}
    pair = pair_from_params(fixed, ModelKind.EM_DIPOLE)
    alone, scan = [], []
    _spy(monkeypatch, harvesting, "scaled_time_kernel", alone)
    compute_terms(pair, include_cross=False)
    monkeypatch.undo()
    _spy(monkeypatch, harvesting, "scaled_time_kernel", scan)
    res = orientation_scan(fixed, Axis("theta", 0.0, 2.0 * math.pi, 50))
    assert len(res.rows) == 50
    assert [k.size for k in scan] == [k.size for k in alone]


def test_distance_row_evaluates_the_head_kernel_once_per_pass(monkeypatch):
    k_hi = math.sqrt(750.0 / 0.5)   # the Gaussian's dead point at T = 1
    fixed = {"omega_T": 12.0, "a0_omega": 1e-3, "tba_over_T": 8.0}
    grid = ScanGrid(axes=(Axis("d_over_T", 0.0, 24.0, 10),), fixed=fixed,
                    model=ModelKind.EM_DIPOLE)
    real_spec, real_panels = harvesting._spec, specfun._gk15_panels

    def head_passes(run):
        kernel, panels, m_shared = [], [], []

        def spec(share, members):
            out = real_spec(share, members)
            if share[0] == "M":
                m_shared.append(out.integrand)
            return out

        def gk15_panels(f, lo, hi, *args, **kwargs):
            panels.append((f, hi))
            return real_panels(f, lo, hi, *args, **kwargs)

        _spy(monkeypatch, harvesting, "scaled_time_kernel", kernel)
        monkeypatch.setattr(harvesting, "_spec", spec)
        monkeypatch.setattr(specfun, "_gk15_panels", gk15_panels)
        run()
        monkeypatch.undo()
        # M's head passes: L's panels evaluate no time kernel
        head = [k.size for k in kernel if k.max() < k_hi]
        assert head == [15 * hi.size for f, hi in panels
                        if f in m_shared and hi.max() <= k_hi]
        return len(head)

    row = head_passes(lambda: run_grid(grid))
    alone = sum(head_passes(lambda: compute_terms(pair_from_params(
        {**fixed, "d_over_T": d}, ModelKind.EM_DIPOLE), include_cross=False))
        for d in grid.axes[0].values())
    assert row < alone / 3


def test_spacetime_map_evaluates_each_kernel_once_per_head_pass(monkeypatch):
    # 4 delays x 5 separations are one M group: each head pass evaluates the
    # spatial kernel at its nodes once per distinct d > 0 and the time kernel
    # once per distinct t_BA among its members, not once per (t_BA, d)
    k_hi = math.sqrt(750.0 / 0.5)
    nodes, passes = {"space": 0, "time": 0}, []
    real_panels = specfun._gk15_panels

    def counted(name, real):
        def spy(k, *args, **kwargs):
            nodes[name] += np.size(k)
            return real(k, *args, **kwargs)
        return spy

    def gk15_panels(f, lo, hi, kernel=None, members=((None, 0.0),)):
        before = dict(nodes)
        out = real_panels(f, lo, hi, kernel, members)
        if kernel is not None and lo.ndim == 1 and hi.max() <= k_hi:
            passes.append(({d for _, d in members if d > 0}, {t for t, _ in members},
                           nodes["space"] - before["space"], nodes["time"] - before["time"],
                           15 * lo.size))
        return out

    monkeypatch.setattr(harvesting, "spherical_bessel_j0_plus_j2",
                        counted("space", harvesting.spherical_bessel_j0_plus_j2))
    monkeypatch.setattr(harvesting, "scaled_time_kernel",
                        counted("time", harvesting.scaled_time_kernel))
    monkeypatch.setattr(specfun, "_gk15_panels", gk15_panels)
    spacetime_map(Axis("d_over_T", 0.0, 24.0, 5), Axis("tba_over_T", 0.0, 24.0, 4),
                  omega_T=12.0)
    assert [(len(d), len(t)) for d, t, _, _, _ in passes[:1]] == [(4, 4)]
    for ds, times, space, time, n in passes:
        assert (space, time) == (len(ds) * n, len(times) * n)


def test_distance_row_sums_its_tails_in_one_kernel_call_per_chunk(monkeypatch):
    # past the live edge the nine members with d > 0 take their wings in one
    # ray pass: one call of the time kernel on the one row of geometric
    # envelope panels that they share, and one of the wings on their upper
    # rays and that row
    fixed = {"omega_T": 12.0, "a0_omega": 1e-3, "tba_over_T": 8.0}
    grid = ScanGrid(axes=(Axis("d_over_T", 0.0, 24.0, 10),), fixed=fixed,
                    model=ModelKind.EM_DIPOLE)
    kernel, wings, rays = [], [], []
    _spy(monkeypatch, harvesting, "scaled_time_kernel", kernel)
    _spy(monkeypatch, harvesting, "_time_wings", wings)
    real_rays = specfun._rays

    def spy(f, wave, members, wings_, k0, top):
        before = len(kernel), len(wings)
        out = real_rays(f, wave, members, wings_, k0, top)
        rays.append((len(members), k0, top, kernel[before[0]:], wings[before[1]:]))
        return out

    monkeypatch.setattr(specfun, "_rays", spy)
    run_grid(grid)
    ((n, k0, top, times, waves),) = rays
    panels = math.ceil(math.log(top.max() / k0.min()) / math.log(specfun._ENVELOPE_RATIO))
    assert n == 9 and [k.shape for k in times] == [(15 * panels,)]
    assert [k.shape for k in waves] == [(9 * specfun._RAY_Y.size + 15 * panels,)]


def test_grid_rows_share_one_float_per_l():
    res = spacetime_map(Axis("d_over_T", 0.0, 24.0, 4), Axis("tba_over_T", 0.0, 24.0, 4),
                        omega_T=12.0)
    assert len({id(x) for r in res.rows for x in (r.l_aa, r.l_bb)}) == 1
    assert [r.n for r in res.rows] == [max(0.0, r.n2) for r in res.rows]
    failed = replace(res.rows[0], n2=math.nan)
    assert math.isnan(failed.n)


def test_a_member_that_misses_its_tolerance_is_retried_alone(monkeypatch):
    fixed = {"omega_T": 2.0, "a0_omega": 1e-3, "tba_over_T": 3.0}
    grid = ScanGrid(axes=(Axis("d_over_T", 1.0, 5.0, 5),), fixed=fixed,
                    model=ModelKind.UDW_SCALAR)
    clean = run_grid(grid)
    assert all(r.converged for r in clean.rows)
    target = 3.0
    k_hi = math.sqrt(750.0 / 0.5)
    spec_of = harvesting._spec
    rng = np.random.default_rng(7)

    def noisy(time):
        # the target's own time object: noise on its head nodes alone
        def f(k):
            (value, mag), *rest = time(k)
            noise = np.where(k < k_hi, 3e-9 * rng.standard_normal(np.shape(k)), 0.0)
            return (value * (1.0 + noise), mag), *rest
        return f

    def spec(share, members):
        s = spec_of(share, members)
        if share[0] != "M":
            return s
        return replace(s, members=tuple((noisy(time) if d == target else time, d)
                                        for time, d in s.members))

    monkeypatch.setattr(harvesting, "_spec", spec)
    res = run_grid(grid)
    for row, ref in zip(res.rows, clean.rows):
        if row.coords[0] == target:
            # noise of 3e-9 misses rtol 1e-10, and in the retry alone its
            # error of ~5e-13 misses 1e-7 too: a row of NaN
            assert not row.converged
            assert math.isnan(row.n2) and row.quad_error == math.inf
        else:
            # its neighbours stop on the seed panels, before the noisy
            # member drives any split; their head pass reduces a second
            # time with them, so they agree within their errors
            assert row.converged and (row.l_aa, row.l_bb) == (ref.l_aa, ref.l_bb)
            assert abs(row.n2 - ref.n2) <= row.quad_error + ref.quad_error
            assert abs(row.abs_m - ref.abs_m) <= row.quad_error + ref.quad_error


def test_grid_names_the_first_point_no_state_has():
    # at the default coupling only d = 0 has |M| > 1/2; at 1e7 every point
    # has L_AA + L_BB > 1.  d runs from 2 T down to 0
    grid = ScanGrid(axes=(Axis("tba_over_T", 0.0, 1.0, 2), Axis("d_over_T", 2.0, 0.0, 3)),
                    fixed={"a0_omega": 1e-3, "omega_T": 1.0}, model=ModelKind.UDW_SCALAR)
    with pytest.raises(ValueError, match=r"^at tba_over_T = 0, d_over_T = 0: \|M\| = 1.33 > 1/2"):
        run_grid(grid)
    with pytest.raises(ValueError, match=r"^at tba_over_T = 0, d_over_T = 2: L_AA \+ L_BB = 2.27"):
        run_grid(grid, coupling=1e7)
    assert len(run_grid(grid, coupling=0.1).rows) == 6


def test_grid_rejects_a_coupling_whose_square_overflows():
    # the error of DetectorPair, not the OverflowError of a float's 1e200 ** 2
    grid = ScanGrid(axes=(Axis("d_over_T", 1.0, 2.0, 2),), fixed={}, model=ModelKind.EM_DIPOLE)
    with pytest.raises(ValueError, match=r"coupling 1e\+200 is too large"):
        run_grid(grid, coupling=1e200)
    assert len(run_grid(grid, coupling=1e-3).rows) == 2


@pytest.mark.parametrize("fixed, message", [
    ({"d_over_T": 1e155}, "a separation d of 1e+155 oscillates"),
    ({"d_over_T": -1e155}, "a separation d of 1e+155 oscillates"),
    ({"omega_T": 1e160, "a0_omega": 1e157, "d_over_T": 1.0}, "= exp(-inf): outside double range")])
def test_grid_rejects_a_separation_or_gap_past_the_squares_range(fixed, message):
    # d^2 and (Omega T)^2 overflow past ~1.34e154: the grid raises the error
    # that compute_terms raises for the same pair
    grid = ScanGrid(axes=(Axis("tba_over_T", 0.0, 1.0, 2),), fixed=fixed,
                    model=ModelKind.UDW_SCALAR)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_grid(grid)
