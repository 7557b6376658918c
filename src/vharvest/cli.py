"""Command-line interface: single-point evaluation, grid scans, figure
reproduction and the oracle self-check.

Exit codes: 0 success, 1 self-check failure, 2 invalid configuration,
3 quadrature non-convergence.

--switching auto (the default) crops the switching at --crop-sigmas for
pairs outside the lightcone band, |d - |t_BA|| >= 8 sigma, and leaves it
Gaussian inside; compute, scan and every figure apply that one rule.  The
figures honour --coupling, --switching and the tolerances, and their
headers record coupling, tol_rel, tol_abs and crop_sigmas; fig5b, the
window outside light contact, is always cropped.  fig3 (EM) and fig7 (all
three models) fix their own models and reject a --model other than em.

CSV output is locale-independent: '#'-prefixed header lines, then
comma-separated columns with 17-significant-digit floats, reproducible
byte-for-byte for identical configurations.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import __version__
from .atoms import SwitchingKind
from .harvesting import ModelKind, compute_terms, positivity_report
from .oracle import MUTABLE_CONSTANTS, run_all
from .specfun import QuadratureConvergenceError
from .survey import (LIGHTCONE_HALF_WIDTH, Axis, ScanGrid, harvestability_map,
                     model_comparison, orientation_scan, pair_from_params,
                     run_grid, spacetime_map)

_FLOAT_FMT = "{:.17g}"

# the fields of a scan row after its axis coordinates, in CSV and JSON alike
_ROW_FIELDS = ("l_aa", "l_bb", "abs_m", "n2", "n", "harvestable", "converged")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--model", default="em", choices=[m.value for m in ModelKind],
                   help="coupling model")
    p.add_argument("--a0-omega", type=float, default=1e-3,
                   dest="a0_omega", help="a0 * Omega (atomic radius in gap units)")
    p.add_argument("--coupling", type=float, default=1.0,
                   help="coupling constant e (results scale as e^2)")
    p.add_argument("--tol-rel", type=float, default=1e-10,
                   dest="tol_rel", help="relative quadrature tolerance")
    p.add_argument("--tol-abs", type=float, default=1e-16,
                   dest="tol_abs", help="absolute quadrature tolerance")
    p.add_argument("--switching", default="auto",
                   choices=["gaussian", "cropped", "auto"],
                   help="switching window; 'auto' crops outside the lightcone band")
    p.add_argument("--crop-sigmas", type=float, default=8.0,
                   dest="crop_sigmas", help="crop distance in units of sigma = T/sqrt(2)")


def _add_point(p: argparse.ArgumentParser, require_d: bool):
    # the flags of compute and scan alone: the pair's gap and geometry, and
    # the output format (every figure fixes its own gaps and writes CSV)
    p.add_argument("--omega-T", type=float, default=1.0,
                   dest="omega_T", help="Omega * T (gap in switching-width units)")
    p.add_argument("--format", default="csv", choices=["csv", "json"],
                   help="output format")
    p.add_argument("--d", type=float, required=require_d, default=0.0,
                   help="separation d/T")
    p.add_argument("--tba", type=float, default=0.0, help="switching delay t_BA/T")
    p.add_argument("--psi", type=float, default=0.0)
    p.add_argument("--theta", type=float, default=0.0,
                   help="relative orientation of the 2p_z axes")
    p.add_argument("--phi", type=float, default=0.0)


def _params(args) -> dict:
    """The seven dimensionless groups of compute and scan."""
    return {"a0_omega": args.a0_omega, "omega_T": args.omega_T,
            "d_over_T": args.d, "tba_over_T": args.tba,
            "psi": args.psi, "theta": args.theta, "phi": args.phi}


def _switching_kind(args) -> SwitchingKind:
    variant = "cropped_gaussian" if args.switching == "cropped" else args.switching
    return SwitchingKind(variant, args.crop_sigmas)


def _sweep_kw(args) -> dict:
    """The keywords every sweep takes from the common flags."""
    return {"switching": _switching_kind(args), "coupling": args.coupling,
            "rtol": args.tol_rel, "atol": args.tol_abs}


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    return _FLOAT_FMT.format(float(x))


def _table(meta: dict, columns, rows) -> str:
    """The CSV layout: the version line, one '# key: value' line per meta
    entry, the columns line, then the rows; a row is a tuple of cells or a
    ready-made '#' line."""
    lines = [f"# vharvest {__version__}"]
    lines += [f"# {key}: {val}" for key, val in meta.items()]
    lines.append("# columns: " + ",".join(columns))
    lines += [row if isinstance(row, str) else ",".join(map(_fmt, row))
              for row in rows]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------------
# compute
# ----------------------------------------------------------------------------

def cmd_compute(args) -> int:
    model = ModelKind(args.model)
    params = _params(args)
    pair = pair_from_params(params, model, coupling=args.coupling)
    terms = compute_terms(pair, switching=_switching_kind(args), include_cross=True,
                          atol=args.tol_abs, rtol=args.tol_rel)
    pos = positivity_report(terms)
    record = {
        "model": model.value,
        **params,
        "l_aa": terms.l_aa,
        "l_bb": terms.l_bb,
        "abs_l_ab": abs(terms.l_ab),
        "abs_m": abs(terms.m),
        "n2": terms.negativity2,
        "n": terms.negativity,
        "concurrence": terms.concurrence,
        "n2_scaled": terms.negativity2_scaled,
        "log_scale": terms.log_scale,
        "harvestable": terms.harvestable(),
        # quadrature errors share the exp(log_scale) factoring of *_scaled
        **{f"err_{name}_scaled": terms.quadrature_errors.get(name, 0.0)
           for name in ("l_aa", "l_bb", "l_ab", "m", "crop_tail")},
        "positivity_ok": pos.passed,
    }
    if args.format == "json":
        print(json.dumps(record, indent=2, default=float))
    else:
        for key, val in record.items():
            print(f"{key} = {_fmt(val) if not isinstance(val, str) else val}")
    return 0


# ----------------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------------

def _parse_axis(text: str) -> Axis:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise argparse.ArgumentTypeError(
            "axis must be name:lo:hi:count[:log|linear]")
    spacing = parts[4] if len(parts) == 5 else "linear"
    try:
        return Axis(parts[0], float(parts[1]), float(parts[2]), int(parts[3]), spacing)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def cmd_scan(args) -> int:
    axes = tuple(args.axis)
    names = [a.name for a in axes]
    fixed = {k: v for k, v in _params(args).items() if k not in names}
    grid = ScanGrid(axes=axes, fixed=fixed, model=ModelKind(args.model))
    if args.output not in (None, "-"):
        open(args.output, "a").close()  # an unwritable path fails before the run, not after
    result = run_grid(grid, **_sweep_kw(args))
    bad = sum(not r.converged for r in result.rows)
    if args.strict and bad:
        print(f"error: {bad} rows failed to converge", file=sys.stderr)
        return 3
    command = "scan " + " ".join(f"{a.name}:{a.lo}:{a.hi}:{a.count}:{a.spacing}"
                                 for a in axes)
    columns = names + list(_ROW_FIELDS)
    rows = [(*r.coords, *(getattr(r, f) for f in _ROW_FIELDS)) for r in result.rows]
    if args.format == "json":  # JSON has no NaN: a twice-failed row's is null
        rows = ([None if isinstance(v, float) and not math.isfinite(v) else v for v in row]
                for row in rows)
        text = json.dumps({"command": command, "metadata": result.metadata,
                           "rows": [dict(zip(columns, row)) for row in rows]},
                          indent=2, default=float) + "\n"
    else:
        meta = {"command": command, **dict(sorted(result.metadata.items()))}
        text = _table(meta, columns, rows)
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
    return 0


# ----------------------------------------------------------------------------
# figures: each dataset runs its sweep and returns (meta, rows)
# ----------------------------------------------------------------------------

def _fig3(args, kw):
    rows = []
    for d in (1.0, 1.15, 1.25):
        res = orientation_scan(
            {"a0_omega": args.a0_omega, "omega_T": 1.0,
             "d_over_T": d, "tba_over_T": d},
            Axis("theta", 0.0, 2.0 * math.pi, args.points), **kw)
        rows.append(f"# block: d_over_T={_fmt(d)}")
        rows += [(r.coords[0], r.n2, r.n) for r in res.rows]
    meta = {"model": "em", "a0_omega": _fmt(args.a0_omega), "omega_T": 1,
            "light contact": "tba_over_T = d_over_T per block"}
    return meta, rows


def _fig4(args, kw):
    res = harvestability_map(
        Axis("omega_T", 0.5, 40.0, args.ny), Axis("d_over_T", 0.5, 40.0, args.nx),
        tba_over_T=10.0, a0_omega=args.a0_omega,
        model=ModelKind(args.model), **kw)
    meta = {"model": args.model, "a0_omega": _fmt(args.a0_omega), "tba_over_T": 10,
            "lightcone_d": res.metadata["lightcone_d"]}
    return meta, [(*r.coords, r.n, r.harvestable) for r in res.rows]


def _fig5(args, kw, zoom: bool):
    if zoom:  # fig5b: the window outside light contact, always cropped
        delay = Axis("tba_over_T", 0.0, 8.0, args.ny)
        dist = Axis("d_over_T", 4.0, 14.0, args.nx)
        kw = {**kw, "switching": SwitchingKind("cropped_gaussian", args.crop_sigmas)}
    else:
        delay = Axis("tba_over_T", 0.0, 24.0, args.ny)
        dist = Axis("d_over_T", 0.0, 24.0, args.nx)
    res = spacetime_map(dist, delay, omega_T=12.0, a0_omega=args.a0_omega,
                        model=ModelKind(args.model), **kw)
    sigma = res.metadata["sigma_over_T"]
    meta = {"model": args.model, "a0_omega": _fmt(args.a0_omega), "omega_T": 12,
            "switching": res.metadata["switching"],
            "lightcone": f"d = tba +- {_fmt(LIGHTCONE_HALF_WIDTH)}"}
    return meta, [(*r.coords, r.n2, r.n, (r.coords[1] - r.coords[0]) / sigma)
                  for r in res.rows]


def _fig7(args, kw):
    res = model_comparison(Axis("d_over_T", 0.5, 28.0, args.points),
                           omega_T=13.0, tba_over_T=10.0,
                           a0_omega=args.a0_omega, **kw)
    meta = {"a0_omega": _fmt(args.a0_omega), "omega_T": 13, "tba_over_T": 10,
            "theta": "0 (parallel orbitals)"}
    return meta, [(d, em.n, udw.n, dv.n) for d, em, udw, dv in res.rows]


_FIG5_COLUMNS = ("tba_over_T", "d_over_T", "n2", "n", "sigmas_outside_lightcone")
_FIG5_PLOT = 'plot "{csv}" using 2:1:4 with image title "negativity"'

# name: (dataset, columns, xlabel, ylabel, log y, gnuplot plot line)
_FIGURES = {
    "fig3": (_fig3, ("theta", "n2", "n"), "relative orientation theta",
             "negativity", True,
             'plot "{csv}" every :::0::0 using 1:3 with lines title "d/T=1", \\\n'
             '     "{csv}" every :::1::1 using 1:3 with lines title "d/T=1.15", \\\n'
             '     "{csv}" every :::2::2 using 1:3 with lines title "d/T=1.25"'),
    "fig4": (_fig4, ("omega_T", "d_over_T", "n", "harvestable"), "d/T", "Omega T",
             False, 'plot "{csv}" using 2:1:4 with image title "harvestable"'),
    "fig5a": (functools.partial(_fig5, zoom=False), _FIG5_COLUMNS, "d/T", "t_BA/T",
              False, _FIG5_PLOT),
    "fig5b": (functools.partial(_fig5, zoom=True), _FIG5_COLUMNS, "d/T", "t_BA/T",
              True, _FIG5_PLOT),
    "fig7": (_fig7, ("d_over_T", "n_em", "n_udw", "n_derivative"), "d/T",
             "negativity", True,
             'plot "{csv}" using 1:2 with lines title "EM dipole", \\\n'
             '     "{csv}" using 1:3 with lines title "UdW scalar", \\\n'
             '     "{csv}" using 1:4 with lines title "derivative"'),
}


# figures that fix their own models, so --model must keep its default "em"
_OWN_MODELS = {"fig3": "the EM dipole model", "fig7": "all three models"}


def cmd_figure(args) -> int:
    if args.name not in _FIGURES:
        raise ValueError(f"unknown figure {args.name!r}; choose from {sorted(_FIGURES)}")
    if args.name in _OWN_MODELS and args.model != "em":
        raise ValueError(f"figure {args.name} fixes its own models "
                         f"({_OWN_MODELS[args.name]}); --model {args.model} does not apply")
    dataset, columns, xlabel, ylabel, logy, plot = _FIGURES[args.name]
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    meta, rows = dataset(args, _sweep_kw(args))
    run = {key: getattr(args, key) for key in ("coupling", "tol_rel", "tol_abs", "crop_sigmas")}
    csv, plt = outdir / f"{args.name}.csv", outdir / f"{args.name}.plt"
    csv.write_text(_table({"figure": args.name, **meta, **run}, columns, rows))
    script = ['set datafile separator ","', f'set output "{args.name}.png"',
              "set terminal pngcairo size 900,640",
              f'set xlabel "{xlabel}"', f'set ylabel "{ylabel}"']
    script += ["set logscale y"] * logy + [plot.format(csv=csv.name)]
    plt.write_text("\n".join(script) + "\n")
    print(f"wrote {csv} and {plt}")
    return 0


# ----------------------------------------------------------------------------
# selfcheck
# ----------------------------------------------------------------------------

def cmd_selfcheck(args) -> int:
    reports = run_all(seed=args.seed, mutate=args.mutate)
    width = max(len(r.name) for r in reports)
    print(f"{'oracle':{width}s}  {'rel_err':>12s}  {'tol':>8s}  result")
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:{width}s}  {r.rel_err:12.3e}  {r.tol:8.0e}  {status}")
    ok = all(r.passed for r in reports)
    print(f"selfcheck: {'all oracles passed' if ok else 'FAILURES detected'}")
    return 0 if ok else 1


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vharvest",
        description="Entanglement harvesting from the vacuum with "
                    "hydrogenlike atoms: scalar, derivative and "
                    "electromagnetic dipole couplings.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evaluate one configuration")
    _add_common(p)
    _add_point(p, require_d=True)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("scan", help="sweep one or two parameters")
    _add_common(p)
    p.add_argument("--axis", type=_parse_axis, action="append", required=True,
                   help="axis spec name:lo:hi:count[:log|linear]; repeatable")
    _add_point(p, require_d=False)
    p.add_argument("--output", default="-", help="output path; '-' for stdout")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 if any row fails to converge")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("figure", help="reproduce a figure dataset")
    _add_common(p)
    p.add_argument("name", help="fig3, fig4, fig5a, fig5b or fig7")
    p.add_argument("--points", type=int, default=200, help="points for 1D figures")
    p.add_argument("--nx", type=int, default=40, help="x resolution for map figures")
    p.add_argument("--ny", type=int, default=40, help="y resolution for map figures")
    p.add_argument("--output-dir", default=".", dest="output_dir")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("selfcheck", help="run every brute-force oracle")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--mutate", default=None, metavar="CONSTANT",
                   help="perturb one closed-form constant by 1e-6 to prove "
                        f"the oracles notice; one of {sorted(MUTABLE_CONSTANTS)}")
    p.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QuadratureConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # OSError: an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
