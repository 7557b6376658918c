"""Parameter sweeps over the dimensionless groups (a0*Omega, Omega*T, d/T,
t_BA/T, Euler angles) and the optimal-orientation catalogue.

All sweeps work at T = 1 internally.  A sweep hands all its points to
the engine at once as columns, one array per parameter, without a pair per
point (``harvesting._harvest``, the work of ``compute_terms_many``), which
integrates M once per model, a0 and T: a whole spacetime map (fig5a/b,
every t_BA and d), the points at one Omega (fig4) or of one model (fig7)
share one head panel set, each head pass reduces the members of one t_BA
as blocks, and points that differ only in orientation (fig3) share one
integral.  The rows are built from the engine's arrays, in canonical grid
order.  Every sweep forwards its keywords
to ``run_grid``, whose ``threads`` is accepted and has no effect: the work
is GIL-bound, and a thread pool ran a grid at about 0.9x the speed of one
thread.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .angular import EulerAngles, euler_rotation_matrix
from .atoms import LIGHTCONE_SIGMAS, AtomSpec, SwitchingKind
from .harvesting import (_NAMES, ERROR_FACTOR, DetectorPair, ModelKind, _harvest,
                         _negativity2_error, _state_fault, negativity_leading)

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

# light contact is possible within |d - |t_BA|| < 8 sigma = 8/sqrt(2) T
LIGHTCONE_HALF_WIDTH = LIGHTCONE_SIGMAS / math.sqrt(2.0)

# each parameter's value where a grid neither sweeps nor fixes it
_DEFAULTS = {"a0_omega": 1e-3, "omega_T": 1.0, "d_over_T": 0.0, "tba_over_T": 0.0,
             "psi": 0.0, "theta": 0.0, "phi": 0.0}
_PARAM_NAMES = tuple(_DEFAULTS)


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
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"axis bounds lo and hi must be finite, not "
                             f"{self.lo!r} and {self.hi!r}")
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


@dataclass(frozen=True, slots=True)
class ScanRow:
    # slotted (~10 % smaller): a scan keeps one row per grid point
    coords: tuple
    l_aa: float
    l_bb: float
    abs_m: float
    n2: float
    harvestable: bool
    converged: bool
    quad_error: float

    @property
    def n(self) -> float:
        return self.n2 if math.isnan(self.n2) else max(0.0, self.n2)


@dataclass(frozen=True)
class ScanResult:
    grid: ScanGrid
    rows: list
    metadata: dict = field(default_factory=dict)


def pair_from_params(params: dict, model: ModelKind,
                     coupling: float = 1.0) -> DetectorPair:
    """Build a detector pair from the dimensionless parameter groups, T = 1."""
    p = {**_DEFAULTS, **params}
    a0_omega, omega = p["a0_omega"], p["omega_T"]
    angles = EulerAngles(p["psi"], p["theta"], p["phi"])
    if omega <= 0 or a0_omega <= 0:
        raise ValueError("omega_T and a0_omega must be positive")
    a0 = a0_omega / omega
    atom_a = AtomSpec(a0=a0, omega=omega, position=(0.0, 0.0, 0.0),
                      switching_center=0.0, switching_width=1.0)
    atom_b = AtomSpec(a0=a0, omega=omega, position=(0.0, 0.0, p["d_over_T"]),
                      switching_center=p["tba_over_T"], switching_width=1.0,
                      orientation=angles)
    return DetectorPair(atom_a, atom_b, model, coupling=coupling)


@functools.lru_cache(maxsize=16)
def _points(axes: tuple) -> tuple:
    # a grid's points in raster order (last axis fastest): their coordinates,
    # one float object per axis value, and each axis's values as a column,
    # shared by the grids over the same axes and the rows they keep
    values = [a.values() for a in axes]
    columns = [v.ravel() for v in np.meshgrid(*values, indexing="ij")]
    for column in columns:
        column.flags.writeable = False
    return (tuple(itertools.product(*(v.tolist() for v in values))),
            dict(zip((a.name for a in axes), columns)))


def _grid_columns(grid: ScanGrid, coupling: float) -> tuple[tuple, dict]:
    """The grid's points (``_points``) and the engine's columns of their
    pairs (``harvesting._columns``), the pairs ``pair_from_params`` builds.
    Raises ValueError at the first point it rejects, with its message."""
    coords, columns = _points(tuple(grid.axes))
    n, names = len(coords), [a.name for a in grid.axes]
    p = {**_DEFAULTS, **grid.fixed, **columns}
    with np.errstate(all="ignore"):
        # an axis is finite (Axis), a fixed value need not be
        a0 = np.divide(p["a0_omega"], p["omega_T"])
        valid = ((p["omega_T"] > 0) & (p["a0_omega"] > 0) & (a0 > 0) & np.isfinite(a0)
                 & all(math.isfinite(v) for k, v in p.items() if k not in names)
                 & isinstance(grid.model, ModelKind)
                 & (0 < coupling and coupling * coupling < math.inf))
        for i in np.flatnonzero(~np.broadcast_to(valid, n)):
            pair_from_params({**grid.fixed, **dict(zip(names, coords[i]))}, grid.model, coupling)
        omega, tba, d, theta = (np.full(n, float(v)) if np.ndim(v) == 0 else v for v in (
            p["omega_T"], p["tba_over_T"], p["d_over_T"], p["theta"]))
        return coords, {
            "model": [grid.model] * n, "a0": np.broadcast_to(a0, n), "T": np.ones(n),
            "omega_a": omega, "omega_b": omega, "t_a": np.zeros(n), "t_b": tba,
            "d": np.abs(d),  # the norm of B's position (0, 0, d)
            "rel": np.cos(theta) if grid.model is ModelKind.EM_DIPOLE else np.ones(n),
            "e2": np.full(n, coupling ** 2)}


def _row_columns(h: dict) -> dict:
    # the fields of ScanRow over the points of a batch (harvesting._harvest),
    # as HarvestTerms computes them
    f, l_aa, l_bb, m = h["factor"], h["l_aa"][0], h["l_bb"][0], h["m"][0]
    with np.errstate(all="ignore"):
        n2 = negativity_leading(l_aa, l_bb, np.hypot(m.real, m.imag))
        err = _negativity2_error(h["errors"])
        # |f m| of a real f as a float times a complex: the imaginary 0 of f adds 0
        return {"l_aa": f * l_aa, "l_bb": f * l_bb, "abs_m": np.hypot(f * m.real, f * m.imag),
                "n2": f * n2, "harvestable": n2 > ERROR_FACTOR * err, "quad_error": f * err,
                "failed": np.array([x is not None for x in h["failed"]])}


def run_grid(grid: ScanGrid, threads: int = 1,
             switching: SwitchingKind = SwitchingKind("auto"),
             coupling: float = 1.0, rtol: float = 1e-10,
             atol: float = 1e-16) -> ScanResult:
    """Evaluate the negativity over the grid; rows in canonical raster order.

    The grid's points go to the engine as columns, without a pair per
    point (``harvesting._harvest``, ``compute_terms_many``'s work), so
    points that differ only in d and orientation share their M integrals,
    and the rows come from its arrays.  A point whose terms miss the
    tolerance is retried, with the other such points, at atol and rtol x
    1e3 and marked ``converged=False``; one that misses that too is a row
    of NaN (null in a JSON scan).  The default switching is "auto", which
    crops pairs outside the lightcone band (``SwitchingKind.resolve``).
    ``threads`` is accepted and has no effect.  Raises ValueError at the
    first point ``pair_from_params`` rejects, and, named by its
    coordinates, at the first point with a term outside double range or
    whose terms no state has (``harvesting.assemble_state``)."""
    coords, cols = _grid_columns(grid, coupling)

    def point(i):
        return "at " + ", ".join(f"{a.name} = {v:g}" for a, v in zip(grid.axes, coords[i]))

    row = _row_columns(_harvest(cols, _NAMES[:3], switching, atol, rtol, point))
    missed = np.flatnonzero(row["failed"])
    if missed.size:
        cols = {k: [v[i] for i in missed] if k == "model" else v[missed] for k, v in cols.items()}
        for key, col in _row_columns(_harvest(cols, _NAMES[:3], switching, atol * 1e3, rtol * 1e3,
                                              lambda i: point(missed[i]))).items():
            row[key][missed] = col
    fault = _state_fault(*(np.where(row["failed"], 0.0, row[k]) for k in ("l_aa", "l_bb", "abs_m")))
    if fault:
        raise ValueError(f"{point(fault[0])}: {fault[1]}")
    floats = {}  # plain floats, one object per distinct L value: a scan keeps every row
    l_aa, l_bb = (list(map(floats.setdefault, v, v)) for v in (row["l_aa"].tolist(),
                                                                row["l_bb"].tolist()))
    converged = np.ones(len(coords), dtype=bool)
    converged[missed] = False
    rows = list(map(ScanRow, coords, l_aa, l_bb, *(row[k].tolist() for k in (
        "abs_m", "n2", "harvestable")), converged.tolist(), row["quad_error"].tolist()))
    for i in np.flatnonzero(row["failed"]).tolist():
        rows[i] = ScanRow(coords[i], math.nan, math.nan, math.nan, math.nan, False, False, math.inf)
    meta = {"model": grid.model.value, "fixed": dict(grid.fixed),
            "axes": [(a.name, a.lo, a.hi, a.count, a.spacing) for a in grid.axes],
            "rtol": rtol, "atol": atol, "error_factor": ERROR_FACTOR,
            "switching": switching.variant, "crop_sigmas": switching.crop_sigmas,
            "coupling": coupling}
    return ScanResult(grid=grid, rows=rows, metadata=meta)


# ----------------------------------------------------------------------------
# The figure-level sweeps
# ----------------------------------------------------------------------------

def orientation_scan(fixed: dict, theta_axis: Axis, **kw) -> ScanResult:
    """Negativity versus the relative orientation angle (EM model)."""
    grid = ScanGrid(axes=(theta_axis,), fixed=dict(fixed),
                    model=ModelKind.EM_DIPOLE)
    return run_grid(grid, **kw)


def harvestability_map(omega_axis: Axis, distance_axis: Axis,
                       tba_over_T: float, a0_omega: float = 1e-3,
                       model: ModelKind = ModelKind.EM_DIPOLE,
                       **kw) -> ScanResult:
    """Binary harvestability channel over (Omega T, d/T) at fixed delay."""
    grid = ScanGrid(axes=(omega_axis, distance_axis),
                    fixed={"tba_over_T": tba_over_T, "a0_omega": a0_omega},
                    model=model)
    res = run_grid(grid, **kw)
    # the band SwitchingKind.resolve leaves uncropped, |d - |t_BA|| < 8 sigma
    res.metadata["lightcone_d"] = (abs(tba_over_T) - LIGHTCONE_HALF_WIDTH,
                                   abs(tba_over_T) + LIGHTCONE_HALF_WIDTH)
    return res


def spacetime_map(distance_axis: Axis, delay_axis: Axis, omega_T: float,
                  a0_omega: float = 1e-3,
                  model: ModelKind = ModelKind.EM_DIPOLE,
                  **kw) -> ScanResult:
    """Negativity over (t_BA/T, d/T) at fixed gap."""
    grid = ScanGrid(axes=(delay_axis, distance_axis),
                    fixed={"omega_T": omega_T, "a0_omega": a0_omega},
                    model=model)
    res = run_grid(grid, **kw)
    res.metadata["sigma_over_T"] = 1.0 / math.sqrt(2.0)
    return res


def model_comparison(distance_axis: Axis, omega_T: float, tba_over_T: float,
                     a0_omega: float = 1e-3, **kw) -> ScanResult:
    """One negativity column per coupling model over distance (parallel
    2p_z orbitals for the EM column)."""
    fixed = {"omega_T": omega_T, "tba_over_T": tba_over_T,
             "a0_omega": a0_omega, "theta": 0.0}
    per_model = {}
    for model in ModelKind:
        grid = ScanGrid(axes=(distance_axis,), fixed=dict(fixed), model=model)
        per_model[model.value] = run_grid(grid, **kw)
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
    """The 96 orientations that maximise ``orientation_score`` (four
    printed families over n, m = 0..3 and l = 1..8), deduplicated as
    parameter triples.  For end-on EM pairs, the only EM geometry the
    package computes, each gives |M| at 1/3 or 2/3 of the identity
    orientation's, not more."""
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
