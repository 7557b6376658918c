"""The benchmark's workloads: their inputs, their timed bodies and the check
of their outputs against committed reference values.

Every workload is a closed loop with one caller: the next point is sent only
after the previous one returned.  A run repeats batches of a workload until
its time is up.

* ``spacetime_grid``: one batch is ``survey.spacetime_map`` over fig5a's
  grid (EM, Omega T = 12, a0 Omega = 1e-3, t_BA/T and d/T over 0..24, auto
  switching).  Every point shares L and rows and columns share t_BA and d,
  which is the traffic an L memo or a batched grid exploits.  The seed is
  ignored.
* ``scatter_terms``: one batch is ``BATCH`` independent identical-atom pairs,
  each evaluated by ``compute_terms(include_cross=True)``.  No two points of
  a run share a parameter, so caches and batching are bypassed; it is the
  only traffic through L_AB.
* ``unequal_gaps``: as ``scatter_terms`` with Omega_B/Omega_A in
  [0.8, 1.25] and ``include_cross=False``; the only traffic through
  ``time_integral_closed``.
* ``selfcheck``: one batch is ``oracle.run_all(seed)``; the only traffic
  through the brute-force layers.

The pairs of ``scatter_terms`` and ``unequal_gaps`` are drawn once from
``POOL_SEED`` into a pool with committed reference values; ``--seed``
chooses the order in which a run walks the pool, without repeats.  So every
seed's points are checked against a reference.
"""

from __future__ import annotations

import csv
import hashlib
import math
import resource
import signal
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
import vharvest
from vharvest import oracle, survey

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "references"

WORKLOADS = {
    "spacetime_grid": "fig5a spacetime map: every point shares L, rows and "
                      "columns share t_BA and d (what an L memo or a batched "
                      "grid exploits)",
    "scatter_terms": "independent identical-atom pairs across the three "
                     "models with L_AB: no shared parameters, so caches and "
                     "batching are bypassed",
    "unequal_gaps": "pairs with unequal gaps: the only traffic through "
                    "time_integral_closed",
    "selfcheck": "oracle.run_all: the only traffic through the brute-force "
                 "oracle, atoms and angular layers",
}

POOL_SEED = 2016
POOL_SIZE = {"scatter_terms": 8000, "unequal_gaps": 1000}
BATCH = {"scatter_terms": 100, "unequal_gaps": 10}
GRID_N = 10
MODELS = tuple(vharvest.ModelKind)

# quantities compared with the reference, each with its quadrature error
FIELDS = {
    "spacetime_grid": ("l_aa", "l_bb", "abs_m", "n2"),
    "scatter_terms": ("l_aa", "l_bb", "abs_l_ab", "abs_m", "n2"),
    "unequal_gaps": ("l_aa", "l_bb", "abs_m", "n2"),
}


# ----------------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------------

def pool_params(workload: str) -> dict[str, np.ndarray]:
    """The fixed pool of pair parameters of a point workload (T = 1)."""
    n = POOL_SIZE[workload]
    rng = np.random.default_rng([POOL_SEED, list(POOL_SIZE).index(workload)])
    p = {
        "model": rng.integers(0, len(MODELS), n),
        "omega_T": rng.uniform(0.5, 15.0, n),
        "a0_omega": 10.0 ** rng.uniform(-4.0, -2.0, n),
        "d": rng.uniform(0.5, 25.0, n),
        "tba": rng.uniform(0.5, 25.0, n),
        "psi": rng.uniform(0.0, 2.0 * math.pi, n),
        "theta": np.arccos(rng.uniform(-1.0, 1.0, n)),
        "phi": rng.uniform(0.0, 2.0 * math.pi, n),
    }
    p["omega_ratio"] = (rng.uniform(0.8, 1.25, n) if workload == "unequal_gaps"
                        else np.ones(n))
    return p


def pool_digest(params: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for key in sorted(params):
        h.update(key.encode())
        h.update(np.ascontiguousarray(params[key]).tobytes())
    return h.hexdigest()[:16]


def make_pair(params: dict, i: int) -> vharvest.DetectorPair:
    """Pair i of a pool: equal a0 and T = 1, B on A's z axis."""
    omega = float(params["omega_T"][i])
    a0 = float(params["a0_omega"][i]) / omega
    angles = vharvest.EulerAngles(float(params["psi"][i]), float(params["theta"][i]),
                                  float(params["phi"][i]))
    atom_a = vharvest.AtomSpec(a0=a0, omega=omega, position=(0.0, 0.0, 0.0),
                               switching_center=0.0, switching_width=1.0)
    atom_b = vharvest.AtomSpec(a0=a0, omega=omega * float(params["omega_ratio"][i]),
                               position=(0.0, 0.0, float(params["d"][i])),
                               switching_center=float(params["tba"][i]),
                               switching_width=1.0, orientation=angles)
    return vharvest.DetectorPair(atom_a, atom_b, MODELS[int(params["model"][i])])


def canonical_pair(omega_T: float, a0_omega: float, d: float, tba: float,
                   theta: float, model=vharvest.ModelKind.EM_DIPOLE,
                   omega_ratio: float = 1.0) -> vharvest.DetectorPair:
    params = {"model": [MODELS.index(model)], "omega_T": [omega_T],
              "a0_omega": [a0_omega], "d": [d], "tba": [tba], "psi": [0.0],
              "theta": [theta], "phi": [0.0], "omega_ratio": [omega_ratio]}
    return make_pair(params, 0)


def warm_up() -> None:
    """The one evaluation set-up includes and the timed body excludes."""
    vharvest.compute_terms(canonical_pair(3.0, 1e-3, 4.0, 1.0, 0.2),
                           include_cross=True)


def fig5a_grid(n: int = GRID_N):
    return survey.spacetime_map(survey.Axis("d_over_T", 0.0, 24.0, n),
                                survey.Axis("tba_over_T", 0.0, 24.0, n),
                                omega_T=12.0, a0_omega=1e-3,
                                model=vharvest.ModelKind.EM_DIPOLE, threads=1)


# ----------------------------------------------------------------------------
# outputs
# ----------------------------------------------------------------------------

def terms_record(terms) -> tuple[dict, dict]:
    """Values and quadrature errors of one compute_terms result."""
    f = math.exp(terms.log_scale)
    e = terms.quadrature_errors
    values = {"l_aa": terms.l_aa, "l_bb": terms.l_bb, "abs_l_ab": abs(terms.l_ab),
              "abs_m": abs(terms.m), "n2": terms.negativity2}
    errors = {"l_aa": f * e["l_aa"], "l_bb": f * e["l_bb"],
              "abs_l_ab": f * e.get("l_ab", 0.0), "abs_m": f * e["m"],
              "n2": f * terms.negativity2_error_scaled()}
    return values, errors


def row_record(row) -> tuple[dict, dict]:
    """Values of one scan row; its n2 error bounds each term's error too,
    because it sums the error of |M| and half those of L_AA and L_BB (which
    are equal for identical atoms)."""
    values = {"l_aa": row.l_aa, "l_bb": row.l_bb, "abs_m": row.abs_m, "n2": row.n2}
    return values, dict.fromkeys(values, row.quad_error)


@dataclass
class Outcome:
    """One point's result (a scan row or HarvestTerms) or why it failed."""
    key: int
    record: object = None
    failure: str | None = None


# a batch that is one long call gets a reference run every SAMPLE_S seconds
# during the call as well, so that a change of machine speed inside the call
# is seen
SAMPLE_S = 0.4


class _Sampler:
    """Runs the reference from a SIGALRM handler every SAMPLE_S seconds and
    keeps the samples and the time they took away from the call."""

    def __init__(self):
        self.ref_s = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        t0 = perf_counter()
        self.ref_s.append(calibrate.measure())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False


@dataclass
class BodyResult:
    batch_s: list = field(default_factory=list)     # wall of each batch
    ref_s: list = field(default_factory=list)       # reference runs around them
    mid_ref_s: list = field(default_factory=list)   # and during each batch
    point_ms: list = field(default_factory=list)    # latency samples
    point_batch: list = field(default_factory=list)  # batch of each sample
    points: int = 0                                 # configurations done
    outcomes: list = field(default_factory=list)
    reports: list = field(default_factory=list)     # selfcheck oracle reports
    pool_exhausted: bool = False
    peak_rss_mb: float = 0.0


def _eval_point(pair, include_cross: bool, key: int, out: BodyResult) -> None:
    t0 = perf_counter()
    try:
        terms = vharvest.compute_terms(pair, include_cross=include_cross)
    except Exception as exc:  # a failed point is counted, not fatal
        out.point_ms.append(1e3 * (perf_counter() - t0))
        out.outcomes.append(Outcome(key, failure=f"raised {exc!r}"))
        return
    out.point_ms.append(1e3 * (perf_counter() - t0))
    out.outcomes.append(Outcome(key, record=terms))


def run_body(workload: str, seed: int, seconds: float | None = None,
             batches: int | None = None, tracer=None) -> BodyResult:
    """Run batches until ``seconds`` have passed or ``batches`` are done
    (at least one), each between two runs of the machine-speed reference
    (calibrate.py).  Outcomes hold the raw scan rows or HarvestTerms."""
    out = BodyResult()
    if workload in POOL_SIZE:
        params = pool_params(workload)
        order = np.random.default_rng(seed).permutation(POOL_SIZE[workload])
        size = BATCH[workload]
        n_batches = len(order) // size
    else:
        n_batches = None
    calibrate.reference()  # first call: not timed
    start = perf_counter()
    out.ref_s.append(calibrate.measure())
    b = 0
    while True:
        if batches is not None and b >= batches:
            break
        if batches is None and b > 0 and perf_counter() - start >= seconds:
            break
        if n_batches is not None and b >= n_batches:
            out.pool_exhausted = True
            break
        if tracer:
            tracer.point_id = b
        with tracer.span("bench.batch") if tracer else nullcontext():
            _run_batch(workload, seed, out, tracer,
                       None if n_batches is None else (params, order[b * size:(b + 1) * size]))
        out.ref_s.append(calibrate.measure())
        out.point_batch.extend([b] * (len(out.point_ms) - len(out.point_batch)))
        b += 1
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _run_batch(workload: str, seed: int, out: BodyResult, tracer, points) -> None:
    # the traced run takes no samples: they would land in the spans
    sampler = _Sampler() if tracer is None else None
    t0 = perf_counter()
    if workload == "spacetime_grid":
        with sampler or nullcontext():
            rows = fig5a_grid().rows
        n = len(rows)
        out.outcomes.extend(Outcome(i, record=row) for i, row in enumerate(rows))
    elif workload == "selfcheck":
        with sampler or nullcontext():
            reports = oracle.run_all(seed)
        n = len(reports)
        out.reports.extend(reports)
    else:
        params, keys = points
        n = len(keys)
        include_cross = workload == "scatter_terms"
        for i in keys.tolist():
            pair = make_pair(params, i)
            if tracer:
                tracer.point_id = i
            _eval_point(pair, include_cross, i, out)
    wall = perf_counter() - t0 - (sampler.spent if sampler else 0.0)
    out.batch_s.append(wall)
    out.mid_ref_s.append(sampler.ref_s if sampler else [])
    out.points += n
    if workload in ("spacetime_grid", "selfcheck"):
        # one call serves all n points: its share is each point's latency
        out.point_ms.append(1e3 * wall / n)


# ----------------------------------------------------------------------------
# reference values
# ----------------------------------------------------------------------------

def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.csv"


def expected_digest(workload: str) -> str:
    if workload == "spacetime_grid":
        return f"fig5a-{GRID_N}x{GRID_N}"
    return pool_digest(pool_params(workload))


def to_record(workload: str, o: Outcome) -> tuple[dict, dict] | None:
    """(values, errors) of an outcome, or None with ``o.failure`` set."""
    if o.failure is None and workload == "spacetime_grid" and not o.record.converged:
        o.failure = "retried at the loosened tolerance (converged=False)"
    if o.failure is not None:
        return None
    return row_record(o.record) if workload == "spacetime_grid" else terms_record(o.record)


def write_reference(workload: str, outcomes: list, header: list[str]) -> None:
    fields = FIELDS[workload]
    records = {o.key: to_record(workload, o) for o in outcomes}
    bad = [o for o in outcomes if o.failure is not None]
    if bad:
        raise RuntimeError(f"{workload}: {len(bad)} points failed while "
                           f"regenerating references, e.g. {bad[0].failure}")
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(reference_path(workload), "w", newline="") as fh:
        for line in header + [f"inputs: {expected_digest(workload)}"]:
            fh.write(f"# {line}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["key"] + [c for f in fields for c in (f, f + "_err")])
        for key in sorted(records):
            values, errors = records[key]
            w.writerow([key] + [c for f in fields
                                  for c in (repr(float(values[f])), f"{errors[f]:.3e}")])


def load_reference(workload: str) -> dict[int, tuple[dict, dict]]:
    """Reference records by key; raises if the file is missing or was made
    for other inputs."""
    path = reference_path(workload)
    fields = FIELDS[workload]
    refs = {}
    digest = None
    with open(path, newline="") as fh:
        lines = []
        for line in fh:
            if line.startswith("# inputs: "):
                digest = line.split(": ", 1)[1].strip()
            elif not line.startswith("#"):
                lines.append(line)
    if digest != expected_digest(workload):
        raise RuntimeError(f"{path.name} was made for inputs {digest}, "
                           f"not {expected_digest(workload)}: regenerate it")
    for row in csv.DictReader(lines):
        refs[int(row["key"])] = ({f: float(row[f]) for f in fields},
                                 {f: float(row[f + "_err"]) for f in fields})
    return refs


def check(workload: str, body: BodyResult) -> dict:
    """Count attempted and failed points and list the first failures.

    A point fails if it raised, returned NaN, was retried at the loosened
    tolerance (``converged=False``), or moved from its reference by more than
    the sum of the two reported quadrature errors.  For ``selfcheck`` a point
    is one oracle report, failing if it did not pass.
    """
    failures = []
    if workload == "selfcheck":
        for r in body.reports:
            if not r.passed:
                failures.append(f"{r.name}: rel_err {r.rel_err:.3e} > tol {r.tol:.1e}")
        return {"attempted": len(body.reports), "failed": len(failures),
                "failures": failures[:10]}
    refs = load_reference(workload)
    fields = FIELDS[workload]
    for o in body.outcomes:
        rec = to_record(workload, o)
        if rec is None:
            failures.append(f"point {o.key}: {o.failure}")
            continue
        values, errors = rec
        bad = [f for f in fields if not math.isfinite(values[f])]
        if bad:
            failures.append(f"point {o.key}: non-finite {bad}")
            continue
        ref_values, ref_errors = refs[o.key]
        moved = [f for f in fields
                 if abs(values[f] - ref_values[f]) > errors[f] + ref_errors[f]]
        if moved:
            f = moved[0]
            failures.append(f"point {o.key}: {f} {values[f]!r} vs reference "
                            f"{ref_values[f]!r} (errors {errors[f]:.3e} + "
                            f"{ref_errors[f]:.3e})")
    return {"attempted": len(body.outcomes), "failed": len(failures),
            "failures": failures[:10]}
