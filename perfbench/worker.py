"""One benchmark process.  ``run.py`` starts a fresh one for each task, with
``src`` on PYTHONPATH and the BLAS and OpenMP thread counts pinned to 1, and
reads the JSON object it prints last.

    worker.py setup
    worker.py body WORKLOAD SEED (--seconds S | --batches N) [--trace SPANS]
              [--mutate CONSTANT]
    worker.py probe
    worker.py regenerate WORKLOAD
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402


def setup(args) -> dict:
    import workloads
    workloads.warm_up()
    setup_s = time.perf_counter() - _T0
    import calibrate
    calibrate.reference()
    return {"setup_s": setup_s, "ref_s": sorted(calibrate.measure() for _ in range(3))[1],
            "nominal_s": calibrate.NOMINAL_S}


def versions() -> dict:
    import numpy
    import scipy
    import vharvest
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "vharvest": vharvest.__version__}


def body(args) -> dict:
    import workloads
    from vharvest import oracle

    workloads.warm_up()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    saved = None
    if args.mutate:
        module, attr = oracle.MUTABLE_CONSTANTS[args.mutate]
        saved = getattr(module, attr)
        setattr(module, attr, saved * (1.0 + 1e-6))
    try:
        if tracer:
            tracer.install()
        try:
            t0 = time.perf_counter()
            res = workloads.run_body(args.workload, args.seed, seconds=args.seconds,
                                     batches=args.batches, tracer=tracer)
            wall = time.perf_counter() - t0
            if tracer:
                with tracer.span("bench.probe"):
                    layer_probe()
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        if saved is not None:
            setattr(module, attr, saved)
    out = {"batch_s": res.batch_s, "ref_s": res.ref_s, "mid_ref_s": res.mid_ref_s,
           "point_ms": res.point_ms,
           "point_batch": res.point_batch, "points": res.points,
           "nominal_s": workloads.calibrate.NOMINAL_S,
           "body_s": wall, "peak_rss_mb": res.peak_rss_mb,
           "pool_exhausted": res.pool_exhausted, "versions": versions()}
    out.update(workloads.check(args.workload, res))
    if tracer:
        out["layers"] = tracer.layer_table({"bench.batch": "body",
                                            "bench.probe": "probe"})
        out["counters"] = tracer.counters
        out["spans"] = tracer.write_spans(args.trace)
    return out


def layer_probe() -> None:
    """One small call into each traced layer, so that every layer reports a
    measured time on every workload.  Its spans form the 'probe' section."""
    import workloads
    from vharvest import ModelKind, angular, compute_terms, oracle
    workloads.fig5a_grid(2)
    compute_terms(workloads.canonical_pair(2.0, 1e-3, 3.0, 1.5, 0.4,
                                           model=ModelKind.UDW_SCALAR,
                                           omega_ratio=1.1),
                  include_cross=False)
    oracle.time_integral_bruteforce(1.5, 1.5, 2.0, 0.0, 1.7, 1.0)
    oracle.radial_bruteforce(2, 1.0, 0.7)
    oracle.sphere_quadrature([(1, 0), (1, 1), (1, -1, True)], 16, 32)
    oracle.scalar_smearing_fourier_bruteforce(2.0, 0.4)
    angular.gaunt_integral([(1, 0), (2, 1), (1, -1)])


# canonical identical-atom pairs of the per-term probes:
# (Omega T, a0 Omega, d/T, t_BA/T, theta)
TERM_PROBE_PAIRS = ((1.5, 2e-3, 2.0, 0.5, 0.3),
                    (5.0, 5e-4, 7.0, 4.0, 1.0),
                    (11.0, 4e-3, 15.0, 12.0, 0.0))


def probe(args) -> dict:
    """Per-term latencies at the canonical pairs and the two-thread speed-up
    of run_grid, without tracing."""
    import statistics

    import workloads
    from vharvest import ModelKind, cross_noise_term, local_term, nonlocal_term
    from vharvest import survey

    workloads.warm_up()
    out = {}
    terms = {"L": local_term, "M": nonlocal_term, "L_AB": cross_noise_term}
    for model in ModelKind:
        pairs = [workloads.canonical_pair(*p, model=model) for p in TERM_PROBE_PAIRS]
        for label, fn in terms.items():
            ms = []
            for pair in pairs:
                t0 = time.perf_counter()
                fn(pair)
                ms.append(1e3 * (time.perf_counter() - t0))
            out[f"harvesting.term.{label}.{model.value}.ms"] = statistics.median(ms)
    grid = survey.ScanGrid(axes=(survey.Axis("tba_over_T", 0.0, 24.0, 8),
                                 survey.Axis("d_over_T", 0.0, 24.0, 8)),
                           fixed={"omega_T": 12.0, "a0_omega": 1e-3},
                           model=ModelKind.EM_DIPOLE)
    walls = {1: [], 2: []}
    for _ in range(3):
        for threads in (1, 2):
            t0 = time.perf_counter()
            survey.run_grid(grid, threads=threads)
            walls[threads].append(time.perf_counter() - t0)
    out["survey.threads2_speedup"] = (statistics.median(walls[1])
                                      / statistics.median(walls[2]))
    out["threads_walls_s"] = walls
    return out


def regenerate(args) -> dict:
    import workloads
    if args.workload == "spacetime_grid":
        res = workloads.run_body(args.workload, 0, batches=1)
    else:
        n = workloads.POOL_SIZE[args.workload] // workloads.BATCH[args.workload]
        res = workloads.run_body(args.workload, 0, batches=n)
    v = versions()
    workloads.write_reference(args.workload, res.outcomes, [
        f"reference values for the {args.workload} workload of perfbench",
        "regenerate with: python3 perfbench/run.py --regenerate",
        f"python {v['python']}, numpy {v['numpy']}, scipy {v['scipy']}, "
        f"vharvest {v['vharvest']}",
        "columns: each compared value and its reported quadrature error"])
    return {"points": len(res.outcomes)}


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="task", required=True)
    sub.add_parser("setup").set_defaults(func=setup)
    p = sub.add_parser("body")
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--seconds", type=float)
    group.add_argument("--batches", type=int)
    p.add_argument("--trace", default=None, metavar="SPANS")
    p.add_argument("--mutate", default=None)
    p.set_defaults(func=body)
    sub.add_parser("probe").set_defaults(func=probe)
    p = sub.add_parser("regenerate")
    p.add_argument("workload")
    p.set_defaults(func=regenerate)
    args = parser.parse_args()
    print(json.dumps(args.func(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
