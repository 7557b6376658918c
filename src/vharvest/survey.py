"""Parameter sweeps over the dimensionless groups (a0*Omega, Omega*T, d/T,
t_BA/T, Euler angles) and the optimal-orientation catalogue.

All sweeps work at T = 1 internally; rows are evaluated independently (pure
functions), optionally on a thread pool, and assembled in canonical grid
order so output is deterministic at any thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .angular import EulerAngles, euler_rotation_matrix
from .atoms import AtomSpec, SwitchingKind
from .harvesting import DetectorPair, ModelKind, compute_terms
from .specfun import QuadratureConvergenceError

__all__ = [
    "Axis",
    "ScanGrid",
    "ScanRow",
    "ScanResult",
    "LIGHTCONE_HALF_WIDTH",
    "run_grid",
    "orientation_scan",
    "harvestability_map",
    "spacetime_map",
    "model_comparison",
    "optimal_orientations",
    "orientation_score",
]

# light contact is possible within |d - t_BA| < 8 sigma = 8/sqrt(2) T
LIGHTCONE_HALF_WIDTH = 8.0 / math.sqrt(2.0)

_PARAM_NAMES = ("a0_omega", "omega_T", "d_over_T", "tba_over_T",
                "psi", "theta", "phi")


@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.name not in _PARAM_NAMES:
            raise ValueError(f"unknown axis {self.name!r}; choose from {_PARAM_NAMES}")
        if self.count < 2:
            raise ValueError("axis needs at least 2 points")
        if self.spacing not in ("linear", "log"):
            raise ValueError("spacing must be 'linear' or 'log'")
        if self.spacing == "log" and not (0 < self.lo < self.hi):
            raise ValueError("log axis requires 0 < lo < hi")

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class ScanGrid:
    axes: tuple[Axis, ...]
    fixed: dict
    model: ModelKind

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("1 or 2 axes supported")
        seen = set(a.name for a in self.axes)
        if len(seen) != len(self.axes):
            raise ValueError("duplicate axis")
        for name in self.fixed:
            if name not in _PARAM_NAMES:
                raise ValueError(f"unknown fixed parameter {name!r}")
            if name in seen:
                raise ValueError(f"{name!r} is both an axis and fixed")

    def points(self):
        """Yield parameter dicts in canonical raster order (last axis fastest)."""
        grids = [a.values() for a in self.axes]
        if len(grids) == 1:
            for v in grids[0]:
                yield {self.axes[0].name: float(v), **self.fixed}
        else:
            for v0 in grids[0]:
                for v1 in grids[1]:
                    yield {self.axes[0].name: float(v0),
                           self.axes[1].name: float(v1), **self.fixed}


@dataclass(frozen=True, slots=True)
class ScanRow:
    # slotted (~10 % smaller): a scan keeps one row per grid point
    coords: tuple
    l_aa: float
    l_bb: float
    abs_m: float
    n2: float
    n: float
    harvestable: bool
    converged: bool
    quad_error: float


@dataclass(frozen=True)
class ScanResult:
    grid: ScanGrid
    rows: list
    metadata: dict = field(default_factory=dict)


def pair_from_params(params: dict, model: ModelKind,
                     coupling: float = 1.0) -> DetectorPair:
    """Build a detector pair from the dimensionless parameter groups, T = 1."""
    a0_omega = params.get("a0_omega", 1e-3)
    omega = params.get("omega_T", 1.0)
    d = params.get("d_over_T", 0.0)
    tba = params.get("tba_over_T", 0.0)
    angles = EulerAngles(params.get("psi", 0.0), params.get("theta", 0.0),
                         params.get("phi", 0.0))
    if omega <= 0 or a0_omega <= 0:
        raise ValueError("omega_T and a0_omega must be positive")
    a0 = a0_omega / omega
    atom_a = AtomSpec(a0=a0, omega=omega, position=(0.0, 0.0, 0.0),
                      switching_center=0.0, switching_width=1.0)
    atom_b = AtomSpec(a0=a0, omega=omega, position=(0.0, 0.0, d),
                      switching_center=tba, switching_width=1.0,
                      orientation=angles)
    return DetectorPair(atom_a, atom_b, model, coupling=coupling)


def _auto_switching(params: dict, crop_sigmas: float = 8.0) -> SwitchingKind:
    # cropped by default outside the lightcone band, where the Gaussian tails
    # would otherwise be suspected of carrying the signal
    d = params.get("d_over_T", 0.0)
    tba = params.get("tba_over_T", 0.0)
    if abs(d - abs(tba)) >= LIGHTCONE_HALF_WIDTH:
        return SwitchingKind("cropped_gaussian", crop_sigmas)
    return SwitchingKind()


def _eval_point(params: dict, model: ModelKind, switching, coupling: float,
                error_factor: float, rtol: float, atol: float) -> ScanRow:
    coords = tuple(params[a] for a in params.get("_axis_names", ()))
    sw = switching if switching is not None else _auto_switching(params)
    pair = pair_from_params(params, model, coupling)
    converged = True
    try:
        terms = compute_terms(pair, switching=sw, include_cross=False,
                              atol=atol, rtol=rtol)
    except QuadratureConvergenceError:
        converged = False
        try:
            terms = compute_terms(pair, switching=sw, include_cross=False,
                                  atol=atol * 1e3, rtol=rtol * 1e3)
        except QuadratureConvergenceError:
            return ScanRow(coords, math.nan, math.nan, math.nan, math.nan,
                           math.nan, False, False, math.inf)
    n2 = terms.negativity2
    return ScanRow(
        coords=coords,
        l_aa=terms.l_aa,
        l_bb=terms.l_bb,
        abs_m=abs(terms.m),
        n2=n2,
        n=max(0.0, n2),
        harvestable=terms.harvestable(error_factor),
        converged=converged,
        quad_error=math.exp(terms.log_scale) * terms.negativity2_error_scaled(),
    )


def run_grid(grid: ScanGrid, threads: int = 1, switching: SwitchingKind | None = None,
             coupling: float = 1.0, error_factor: float = 10.0,
             rtol: float = 1e-10, atol: float = 1e-16) -> ScanResult:
    """Evaluate the negativity over the grid; rows in canonical raster order
    regardless of thread count."""
    axis_names = tuple(a.name for a in grid.axes)
    points = []
    for p in grid.points():
        p = dict(p)
        p["_axis_names"] = axis_names
        points.append(p)

    def work(p):
        return _eval_point(p, grid.model, switching, coupling,
                           error_factor, rtol, atol)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(work, points))
    else:
        rows = [work(p) for p in points]
    meta = {
        "model": grid.model.value,
        "fixed": dict(grid.fixed),
        "axes": [(a.name, a.lo, a.hi, a.count, a.spacing) for a in grid.axes],
        "rtol": rtol,
        "atol": atol,
        "error_factor": error_factor,
        "switching": "auto" if switching is None else switching.variant,
    }
    return ScanResult(grid=grid, rows=rows, metadata=meta)


# ----------------------------------------------------------------------------
# The figure-level sweeps
# ----------------------------------------------------------------------------

def orientation_scan(fixed: dict, theta_axis: Axis | None = None,
                     threads: int = 1, **kw) -> ScanResult:
    """Negativity versus the relative orientation angle (EM model)."""
    theta_axis = theta_axis or Axis("theta", 0.0, 2.0 * math.pi, 200)
    grid = ScanGrid(axes=(theta_axis,), fixed=dict(fixed),
                    model=ModelKind.EM_DIPOLE)
    return run_grid(grid, threads=threads, **kw)


def harvestability_map(omega_axis: Axis, distance_axis: Axis,
                       tba_over_T: float, a0_omega: float = 1e-3,
                       model: ModelKind = ModelKind.EM_DIPOLE,
                       threads: int = 1, **kw) -> ScanResult:
    """Binary harvestability channel over (Omega T, d/T) at fixed delay."""
    grid = ScanGrid(axes=(omega_axis, distance_axis),
                    fixed={"tba_over_T": tba_over_T, "a0_omega": a0_omega},
                    model=model)
    res = run_grid(grid, threads=threads, **kw)
    res.metadata["lightcone_d"] = (tba_over_T - LIGHTCONE_HALF_WIDTH,
                                   tba_over_T + LIGHTCONE_HALF_WIDTH)
    return res


def spacetime_map(distance_axis: Axis, delay_axis: Axis, omega_T: float,
                  a0_omega: float = 1e-3,
                  model: ModelKind = ModelKind.EM_DIPOLE,
                  threads: int = 1, **kw) -> ScanResult:
    """Negativity over (t_BA/T, d/T) at fixed gap."""
    grid = ScanGrid(axes=(delay_axis, distance_axis),
                    fixed={"omega_T": omega_T, "a0_omega": a0_omega},
                    model=model)
    res = run_grid(grid, threads=threads, **kw)
    res.metadata["sigma_over_T"] = 1.0 / math.sqrt(2.0)
    return res


def model_comparison(distance_axis: Axis, omega_T: float, tba_over_T: float,
                     a0_omega: float = 1e-3, threads: int = 1,
                     **kw) -> ScanResult:
    """One negativity column per coupling model over distance (parallel
    2p_z orbitals for the EM column)."""
    fixed = {"omega_T": omega_T, "tba_over_T": tba_over_T,
             "a0_omega": a0_omega, "theta": 0.0}
    per_model = {}
    for model in ModelKind:
        grid = ScanGrid(axes=(distance_axis,), fixed=dict(fixed), model=model)
        per_model[model.value] = run_grid(grid, threads=threads, **kw)
    rows = []
    for i, d in enumerate(distance_axis.values()):
        rows.append((float(d),) + tuple(per_model[m.value].rows[i] for m in ModelKind))
    meta = {
        "fixed": fixed,
        "axes": [(distance_axis.name, distance_axis.lo, distance_axis.hi,
                  distance_axis.count, distance_axis.spacing)],
        "models": [m.value for m in ModelKind],
    }
    grid = ScanGrid(axes=(distance_axis,), fixed=fixed, model=ModelKind.EM_DIPOLE)
    return ScanResult(grid=grid, rows=rows, metadata=meta)


# ----------------------------------------------------------------------------
# Optimal orientations
# ----------------------------------------------------------------------------

THETA_1 = math.acos(1.0 / 3.0)    # ~1.2310
THETA_2 = math.acos(-2.0 / 3.0)   # ~2.3005
PSI_1 = math.atan(0.5)            # ~0.4636
PSI_2 = math.atan(2.0)            # ~1.1071


def optimal_orientations() -> list[EulerAngles]:
    """The 96 maximal-harvesting orientations (four printed families over
    n, m = 0..3 and l = 1..8), deduplicated as parameter triples."""
    out = []
    for n in range(4):
        for m in range(4):
            out.append(EulerAngles(math.pi / 4 + n * math.pi / 2, THETA_1,
                                   math.pi / 4 + m * math.pi / 2))
            out.append(EulerAngles(math.pi / 4 + n * math.pi / 2, math.pi - THETA_1,
                                   math.pi / 4 + m * math.pi / 2))
    for n in range(4):
        for l in range(1, 9):
            out.append(EulerAngles(PSI_1 + n * math.pi / 2, THETA_2,
                                   l * math.pi / 2 - PSI_1))
            out.append(EulerAngles(PSI_2 + n * math.pi / 2, THETA_2,
                                   l * math.pi / 2 - PSI_2))
    seen = set()
    unique = []
    for a in out:
        key = (round(a.psi, 12), round(a.theta, 12), round(a.phi, 12))
        if key not in seen:
            seen.add(key)
            unique.append(a)
    return unique


def orientation_score(angles: EulerAngles) -> float:
    """Sum of absolute projections of the rotated frame's axes onto the base
    frame's axes; the objective the maximal configurations extremize (its
    extremes are 3 for aligned frames and 5 for the optimal ones)."""
    return float(np.abs(euler_rotation_matrix(angles)).sum())
