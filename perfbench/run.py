"""vharvest benchmark: end-to-end metrics per workload, or per-layer metrics
from an outside-in trace.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W ... --mutate harvesting.EM_NONLOCAL_COEFF
    python3 perfbench/run.py --regenerate

Run from the root of a checkout; the package is imported from ``src``.  Each
task runs in a fresh single-threaded process (see worker.py).  The last line
printed is one JSON object with the keys correct, attempted, failed and
metrics; the lines above it give every metric with its unit and sample
count, the machine, and any failed point.  Full results go to
``perfbench/out/<workload>-trace<0|1>.json``; a traced run also writes the
span file ``<workload>.spans.tsv.gz`` and the self-time table
``<workload>.layers.txt`` there.

``--trace 0`` reports:
    setup_s       median over fresh processes of importing vharvest and one
                  warm-up evaluation
    wall_s        median wall time of one batch of the timed body
    points_per_s  configurations (for selfcheck: oracle reports) per second
    point_ms_p50, point_ms_p90
                  latency of one point; see README.md for what a point is
    peak_rss_mb   peak resident memory of the workload process
``--trace 1`` runs a fixed number of batches (set by --seconds) once untraced
and once traced, each in a fresh process, and reports the per-layer metrics
listed in BENCHMARK.json (see tracer.py and README.md).
Failures (failed_frac = failed / attempted) are printed in both modes.
``--mutate`` sets one ``oracle.MUTABLE_CONSTANTS`` entry 1e-6 off in the
workload process and restores it afterwards; the run must then report
failures.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("spacetime_grid", "scatter_terms", "unequal_gaps", "selfcheck")
SETUP_RUNS = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# A traced run does a fixed amount of work for a given --seconds, whatever
# the program's speed, so that its counts repeat exactly and compare across
# commits: this many batches per second asked for, which at the seed commit
# takes about a third of the time untraced (and about half traced).
TRACE_BATCHES_PER_S = {"spacetime_grid": 0.8, "scatter_terms": 0.5,
                       "unequal_gaps": 0.67, "selfcheck": 0.17}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "points_per_s": "1/s",
             "point_ms_p50": "ms", "point_ms_p90": "ms", "peak_rss_mb": "MB"}

# (metric, section-table name, field)
_LAYER_FIELDS = [
    *[(f"specfun.{n}.{f}", f"specfun.{n}", g) for n in ("time_kernel", "bessel", "gk15")
      for f, g in (("calls", "calls"), ("nodes", "work"), ("self_s", "self_s"))],
    *[(f"specfun.{n}.{f}", f"specfun.{n}", f) for n in ("adaptive_gk", "wynn")
      for f in ("calls", "self_s")],
    ("specfun.integrate_damped.calls", "specfun.integrate_damped", "calls"),
    ("specfun.integrate_damped.evals", "specfun.integrate_damped", "work"),
    ("specfun.integrate_damped.self_s", "specfun.integrate_damped", "self_s"),
    ("specfun.integrate_damped.failed", "specfun.integrate_damped", "raised"),
    *[(f"harvesting.{n}.{f}", f"harvesting.{n}", f)
      for n in ("compute_terms", "time_integral_closed") for f in ("calls", "self_s")],
    ("survey.run_grid.points", "survey.run_grid", "work"),
    ("survey.run_grid.self_s", "survey.run_grid", "self_s"),
    *[(f"oracle.{n}.self_s", f"oracle.{n}", "self_s")
      for n in ("time_integral_bruteforce", "radial_bruteforce", "sphere_quadrature",
                "scalar_smearing_fourier_bruteforce")],
    ("oracle.evaluations", "oracle.run_all", "work"),
    *[(f"{n}.{f}", n, f) for n in ("atoms.smearing_scalar", "angular.gaunt_integral")
      for f in ("calls", "self_s")],
]


class ChildFailed(RuntimeError):
    pass


class Clock:
    """The run's deadline: every child gets what is left of it."""

    def __init__(self, budget: float):
        self.end = time.monotonic() + budget

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise ChildFailed("out of time")
        return left


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def child(args: list, timeout: float | None) -> dict:
    """Run worker.py in a fresh process and return the JSON it prints last.
    On timeout the process is killed and reaped before this raises."""
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(cmd[2:])} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(cmd[2:])} exited {proc.returncode}:\n"
                          + proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "platform": platform.platform(), **versions,
            "thread_vars": {v: "1" for v in THREAD_VARS}}


def p90(samples: list) -> float:
    # "inclusive" interpolates between samples; the default extrapolates
    # past the largest one when there are fewer than ten
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


# ----------------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------------

def speed_factors(body: dict) -> list:
    """Per batch: NOMINAL_S over the mean of the reference runs before,
    during and after it (calibrate.py)."""
    ref = body["ref_s"]
    return [body["nominal_s"] / statistics.fmean([a, *mid, b])
            for a, mid, b in zip(ref[:-1], body["mid_ref_s"], ref[1:])]


def body_metrics(body: dict, factors: list) -> dict:
    batch_s = [t * f for t, f in zip(body["batch_s"], factors)]
    point_ms = [ms * factors[b] for ms, b in zip(body["point_ms"], body["point_batch"])]
    return {"wall_s": statistics.median(batch_s),
            "points_per_s": body["points"] / sum(batch_s),
            "point_ms_p50": statistics.median(point_ms),
            "point_ms_p90": p90(point_ms),
            "peak_rss_mb": body["peak_rss_mb"]}


def end_to_end(args, clock: Clock) -> dict:
    child(["setup"], clock.left())  # compiles the bytecode; not counted
    setups = [child(["setup"], clock.left()) for _ in range(SETUP_RUNS)]
    cmd = ["body", args.workload, args.seed, "--seconds", args.seconds]
    if args.mutate:
        cmd += ["--mutate", args.mutate]
    body = child(cmd, clock.left())
    setup_s = [s["setup_s"] * s["nominal_s"] / s["ref_s"] for s in setups]
    metrics = {"setup_s": statistics.median(setup_s),
               **body_metrics(body, speed_factors(body))}
    raw = {"setup_s": statistics.median(s["setup_s"] for s in setups),
           **body_metrics(body, [1.0] * len(body["batch_s"]))}
    n_points = len(body["point_ms"])
    samples = {"setup_s": len(setups), "wall_s": len(body["batch_s"]),
               "points_per_s": body["points"], "point_ms_p50": n_points,
               "point_ms_p90": n_points, "peak_rss_mb": 1}
    return {"metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
            "raw": raw, "samples": samples, "setups": setups, "body": body,
            "attempted": body["attempted"], "failed": body["failed"],
            "failures": body["failures"], "versions": body["versions"]}


def per_layer(args, clock: Clock) -> dict:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}.spans.tsv.gz"
    batches = max(1, round(args.seconds * TRACE_BATCHES_PER_S[args.workload]))
    cmd = ["body", args.workload, args.seed, "--batches", batches]
    if args.mutate:
        cmd += ["--mutate", args.mutate]
    plain = child(cmd, clock.left())
    traced = child(cmd + ["--trace", spans], clock.left())
    probes = child(["probe"], clock.left())
    sections = traced["layers"]

    def total(name: str, fld: str):
        return sum(sec.get(name, {}).get(fld, 0) for sec in sections.values())

    metrics = {m: total(name, fld) for m, name, fld in _LAYER_FIELDS}
    grid_calls = sum(sec.get("harvesting.compute_terms", {}).get("parents", {})
                     .get("survey.run_grid", 0) for sec in sections.values())
    metrics["survey.run_grid.retries"] = grid_calls - metrics["survey.run_grid.points"]
    metrics["survey.run_grid.nonconverged"] = traced["counters"]["survey.run_grid.nonconverged"]
    metrics["survey.run_grid.harvestable"] = traced["counters"]["survey.run_grid.harvestable"]
    metrics.update({k: v for k, v in probes.items() if k != "threads_walls_s"})
    metrics["trace.unattributed_s"] = sum(sec.get(n, {}).get("self_s", 0.0)
                                          for sec in sections.values()
                                          for n in ("bench.batch", "bench.probe"))
    metrics["trace.overhead_s"] = (sum(map(operator.mul, traced["batch_s"], speed_factors(traced)))
                                   - sum(map(operator.mul, plain["batch_s"], speed_factors(plain))))
    table = layer_text(args.workload, sections, metrics)
    (OUT / f"{args.workload}.layers.txt").write_text(table)
    return {"metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()},
            "layers": sections, "table": table,
            "spans": traced["spans"], "span_file": str(spans.relative_to(ROOT)),
            "batches": batches, "untraced_body_s": plain["body_s"],
            "traced_body_s": traced["body_s"], "threads_walls_s": probes["threads_walls_s"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "failures": plain["failures"] + traced["failures"],
            "versions": traced["versions"]}


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".ms"):
        return "ms"
    if metric.endswith("speedup"):
        return "ratio"
    return "count"


def layer_text(workload: str, sections: dict, metrics: dict) -> str:
    lines = [f"per-layer self time, workload {workload}",
             "self = span duration minus its child spans; bench.* rows are the "
             "benchmark's own code (unattributed time)", ""]
    for label, rows in sections.items():
        total_self = sum(r["self_s"] for r in rows.values())
        lines.append(f"[{label}]  self time {total_self:.4f} s")
        lines.append(f"{'span':40s} {'calls':>9s} {'work':>11s} {'self_s':>10s} "
                     f"{'share':>6s}  parents")
        for name, r in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
            par = ", ".join(f"{p} {n}" for p, n in sorted(r["parents"].items()))
            lines.append(f"{name:40s} {r['calls']:9d} {r['work']:11d} {r['self_s']:10.4f} "
                         f"{100 * r['self_s'] / total_self:5.1f}%  {par}")
        lines.append("")
    lines.append(f"trace.overhead_s {metrics['trace.overhead_s']:.4f} "
                 "(traced minus untraced batch time of the same batches, "
                 "in reference seconds)")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

def regenerate() -> int:
    for workload in ("spacetime_grid", "scatter_terms", "unequal_gaps"):
        t0 = time.perf_counter()
        res = child(["regenerate", workload], None)
        print(f"{workload}: {res['points']} reference points in "
              f"{time.perf_counter() - t0:.1f} s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mutate", default=None, metavar="CONSTANT")
    parser.add_argument("--regenerate", action="store_true",
                        help="recompute the committed reference values")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vharvest" / "__init__.py").is_file():
        print(f"no vharvest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.regenerate:
        return regenerate()
    if args.workload is None:
        parser.error("--workload is required")
    clock = Clock(DEADLINE_S)
    try:
        res = per_layer(args, clock) if args.trace else end_to_end(args, clock)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    res["machine"] = machine(res.pop("versions"))
    res.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, mutate=args.mutate)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1) + "\n")
    report(res)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


def report(res: dict) -> None:
    m = res["machine"]
    print(f"perfbench {res['workload']} seed={res['seed']} seconds={res['seconds']} "
          f"trace={res['trace']}" + (f" mutate={res['mutate']}" if res["mutate"] else ""))
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']}")
    samples = res.get("samples", {})
    raw = res.get("raw", {})
    for name, v in res["metrics"].items():
        n = f"  (n={samples[name]})" if name in samples else ""
        r = f"  raw {raw[name]:.6g}" if name in raw else ""
        print(f"{name:44s} {v['value']:.6g} {v['unit']}{n}{r}")
    print(f"{'failed_frac':44s} {res['failed'] / res['attempted']:.6g}  "
          f"({res['failed']} of {res['attempted']} points failed)")
    for f in res["failures"]:
        print(f"  failed: {f}")
    if res.get("body", {}).get("pool_exhausted"):
        print("note: the run used its whole input pool and stopped before --seconds")
    if res["trace"]:
        print(res["table"], end="")


if __name__ == "__main__":
    sys.exit(main())
