"""Command-line interface: single-point evaluation, grid scans, figure
reproduction and the oracle self-check.

Exit codes: 0 success, 1 self-check failure, 2 invalid configuration,
3 quadrature non-convergence.  Environment variables prefixed VH_ override
the built-in defaults of the corresponding flags (e.g. VH_TOL_REL,
VH_FORMAT); explicit flags win over the environment.  --threads (and
VH_THREADS) is accepted and has no effect.

CSV output is locale-independent: '#'-prefixed header lines, then
comma-separated columns with 17-significant-digit floats, reproducible
byte-for-byte for identical configurations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .atoms import SwitchingKind
from .harvesting import (ModelKind, assemble_state, compute_terms,
                         positivity_report)
from .oracle import MUTABLE_CONSTANTS, run_all
from .specfun import QuadratureConvergenceError
from .survey import (Axis, ScanGrid, harvestability_map, model_comparison,
                     orientation_scan, pair_from_params, run_grid,
                     spacetime_map)

_FLOAT_FMT = "{:.17g}"


def _env(name: str, fallback):
    raw = os.environ.get(f"VH_{name}")
    if raw is None:
        return fallback
    if isinstance(fallback, bool):
        return raw.lower() in ("1", "true", "yes", "on")
    if isinstance(fallback, int):
        return int(raw)
    if isinstance(fallback, float):
        return float(raw)
    return raw


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--model", default=_env("MODEL", "em"),
                   choices=[m.value for m in ModelKind],
                   help="coupling model")
    p.add_argument("--a0-omega", type=float, default=_env("A0_OMEGA", 1e-3),
                   dest="a0_omega", help="a0 * Omega (atomic radius in gap units)")
    p.add_argument("--omega-T", type=float, default=_env("OMEGA_T", 1.0),
                   dest="omega_T", help="Omega * T (gap in switching-width units)")
    p.add_argument("--coupling", type=float, default=_env("COUPLING", 1.0),
                   help="coupling constant e (results scale as e^2)")
    p.add_argument("--tol-rel", type=float, default=_env("TOL_REL", 1e-10),
                   dest="tol_rel", help="relative quadrature tolerance")
    p.add_argument("--tol-abs", type=float, default=_env("TOL_ABS", 1e-16),
                   dest="tol_abs", help="absolute quadrature tolerance")
    p.add_argument("--switching", default=_env("SWITCHING", "auto"),
                   choices=["gaussian", "cropped", "auto"],
                   help="switching window; 'auto' crops outside the lightcone band")
    p.add_argument("--crop-sigmas", type=float, default=_env("CROP_SIGMAS", 8.0),
                   dest="crop_sigmas", help="crop distance in units of sigma = T/sqrt(2)")
    p.add_argument("--threads", type=int, default=_env("THREADS", 1),
                   help="accepted for compatibility; has no effect")
    p.add_argument("--format", default=_env("FORMAT", "csv"),
                   choices=["csv", "json"], help="output format")


def _switching_kind(args) -> SwitchingKind | None:
    if args.switching == "gaussian":
        return SwitchingKind()
    if args.switching == "cropped":
        return SwitchingKind("cropped_gaussian", args.crop_sigmas)
    return None  # auto


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int,)):
        return str(x)
    return _FLOAT_FMT.format(float(x))


def _write_lines(path, lines):
    if path in (None, "-"):
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        Path(path).write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------------------
# compute
# ----------------------------------------------------------------------------

def cmd_compute(args) -> int:
    model = ModelKind.from_name(args.model)
    params = {"a0_omega": args.a0_omega, "omega_T": args.omega_T,
              "d_over_T": args.d, "tba_over_T": args.tba,
              "psi": args.psi, "theta": args.theta, "phi": args.phi}
    try:
        pair = pair_from_params(params, model, coupling=args.coupling)
        terms = compute_terms(pair, switching=_switching_kind(args),
                              include_cross=True,
                              atol=args.tol_abs, rtol=args.tol_rel)
    except QuadratureConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    state = assemble_state(terms)
    pos = positivity_report(terms, coupling=args.coupling)
    record = {
        "model": model.value,
        "a0_omega": args.a0_omega,
        "omega_T": args.omega_T,
        "d_over_T": args.d,
        "tba_over_T": args.tba,
        "psi": args.psi, "theta": args.theta, "phi": args.phi,
        "l_aa": terms.l_aa,
        "l_bb": terms.l_bb,
        "abs_l_ab": abs(terms.l_ab),
        "abs_m": abs(terms.m),
        "n2": state.negativity2,
        "n": state.negativity,
        "concurrence": state.concurrence,
        "n2_scaled": terms.negativity2_scaled,
        "log_scale": terms.log_scale,
        "harvestable": terms.harvestable(),
        # quadrature errors share the exp(log_scale) factoring of *_scaled
        "err_l_aa_scaled": terms.quadrature_errors.get("l_aa", 0.0),
        "err_l_bb_scaled": terms.quadrature_errors.get("l_bb", 0.0),
        "err_l_ab_scaled": terms.quadrature_errors.get("l_ab", 0.0),
        "err_m_scaled": terms.quadrature_errors.get("m", 0.0),
        "err_crop_tail_scaled": terms.quadrature_errors.get("crop_tail", 0.0),
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
    name, lo, hi, count = parts[0], float(parts[1]), float(parts[2]), int(parts[3])
    spacing = parts[4] if len(parts) == 5 else "linear"
    return Axis(name, lo, hi, count, spacing)


def _scan_lines(result, command: str, extra_meta=None) -> list[str]:
    meta = dict(result.metadata)
    meta.update(extra_meta or {})
    lines = [f"# vharvest {__version__}", f"# command: {command}"]
    for key in sorted(meta):
        lines.append(f"# {key}: {meta[key]}")
    names = [a.name for a in result.grid.axes]
    lines.append("# columns: " + ",".join(
        names + ["l_aa", "l_bb", "abs_m", "n2", "n", "harvestable", "converged"]))
    for row in result.rows:
        cells = [_fmt(c) for c in row.coords]
        cells += [_fmt(row.l_aa), _fmt(row.l_bb), _fmt(row.abs_m),
                  _fmt(row.n2), _fmt(row.n), _fmt(row.harvestable),
                  _fmt(row.converged)]
        lines.append(",".join(cells))
    return lines


def _scan_json(result, command: str, extra_meta=None) -> str:
    meta = dict(result.metadata)
    meta.update(extra_meta or {})
    names = [a.name for a in result.grid.axes]
    rows = []
    for row in result.rows:
        rows.append(dict(zip(names, row.coords))
                    | {"l_aa": row.l_aa, "l_bb": row.l_bb, "abs_m": row.abs_m,
                       "n2": row.n2, "n": row.n, "harvestable": row.harvestable,
                       "converged": row.converged})
    return json.dumps({"command": command, "metadata": meta, "rows": rows},
                      indent=2, default=float)


def cmd_scan(args) -> int:
    model = ModelKind.from_name(args.model)
    fixed = {"a0_omega": args.a0_omega, "omega_T": args.omega_T,
             "d_over_T": args.d, "tba_over_T": args.tba,
             "psi": args.psi, "theta": args.theta, "phi": args.phi}
    axes = tuple(args.axis)
    for ax in axes:
        fixed.pop(ax.name, None)
    try:
        grid = ScanGrid(axes=axes, fixed=fixed, model=model)
        result = run_grid(grid, threads=args.threads,
                          switching=_switching_kind(args),
                          coupling=args.coupling,
                          rtol=args.tol_rel, atol=args.tol_abs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.strict and not all(r.converged for r in result.rows):
        bad = sum(1 for r in result.rows if not r.converged)
        print(f"error: {bad} rows failed to converge", file=sys.stderr)
        return 3
    command = "scan " + " ".join(f"{a.name}:{a.lo}:{a.hi}:{a.count}:{a.spacing}"
                                 for a in axes)
    if args.format == "json":
        text = _scan_json(result, command)
        if args.output in (None, "-"):
            print(text)
        else:
            Path(args.output).write_text(text + "\n")
    else:
        _write_lines(args.output, _scan_lines(result, command))
    return 0


# ----------------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------------

def _plot_script(name: str, csv: str, xlabel: str, ylabel: str,
                 logy: bool, style: str) -> str:
    lines = [
        f'set datafile separator ","',
        f'set output "{name}.png"',
        "set terminal pngcairo size 900,640",
        f'set xlabel "{xlabel}"',
        f'set ylabel "{ylabel}"',
    ]
    if logy:
        lines.append("set logscale y")
    lines.append(style.format(csv=csv))
    return "\n".join(lines) + "\n"


def _figure_fig3(args, outdir: Path):
    lines = [f"# vharvest {__version__}", "# figure: fig3",
             "# model: em", f"# a0_omega: {_fmt(args.a0_omega)}",
             "# omega_T: 1", "# light contact: tba_over_T = d_over_T per block",
             "# columns: theta,n2,n"]
    for d in (1.0, 1.15, 1.25):
        res = orientation_scan(
            {"a0_omega": args.a0_omega, "omega_T": 1.0,
             "d_over_T": d, "tba_over_T": d},
            Axis("theta", 0.0, 2.0 * math.pi, args.points),
            threads=args.threads, rtol=args.tol_rel, atol=args.tol_abs)
        lines.append(f"# block: d_over_T={_fmt(d)}")
        for row in res.rows:
            lines.append(",".join([_fmt(row.coords[0]), _fmt(row.n2), _fmt(row.n)]))
    (outdir / "fig3.csv").write_text("\n".join(lines) + "\n")
    style = ('plot "{csv}" every :::0::0 using 1:3 with lines title "d/T=1", \\\n'
             '     "{csv}" every :::1::1 using 1:3 with lines title "d/T=1.15", \\\n'
             '     "{csv}" every :::2::2 using 1:3 with lines title "d/T=1.25"')
    (outdir / "fig3.plt").write_text(_plot_script(
        "fig3", "fig3.csv", "relative orientation theta", "negativity", True, style))


def _figure_fig4(args, outdir: Path):
    res = harvestability_map(
        Axis("omega_T", 0.5, 40.0, args.ny), Axis("d_over_T", 0.5, 40.0, args.nx),
        tba_over_T=10.0, a0_omega=args.a0_omega,
        model=ModelKind.from_name(args.model), threads=args.threads,
        rtol=args.tol_rel, atol=args.tol_abs)
    lines = [f"# vharvest {__version__}", "# figure: fig4",
             f"# model: {args.model}", f"# a0_omega: {_fmt(args.a0_omega)}",
             "# tba_over_T: 10",
             f"# lightcone_d: {res.metadata['lightcone_d']}",
             "# columns: omega_T,d_over_T,n,harvestable"]
    for row in res.rows:
        lines.append(",".join([_fmt(row.coords[0]), _fmt(row.coords[1]),
                               _fmt(row.n), _fmt(row.harvestable)]))
    (outdir / "fig4.csv").write_text("\n".join(lines) + "\n")
    style = 'plot "{csv}" using 2:1:4 with image title "harvestable"'
    (outdir / "fig4.plt").write_text(_plot_script(
        "fig4", "fig4.csv", "d/T", "Omega T", False, style))


def _figure_fig5(args, outdir: Path, zoom: bool):
    name = "fig5b" if zoom else "fig5a"
    if zoom:
        delay = Axis("tba_over_T", 0.0, 8.0, args.ny)
        dist = Axis("d_over_T", 4.0, 14.0, args.nx)
        switching = SwitchingKind("cropped_gaussian", args.crop_sigmas)
    else:
        delay = Axis("tba_over_T", 0.0, 24.0, args.ny)
        dist = Axis("d_over_T", 0.0, 24.0, args.nx)
        switching = _switching_kind(args)
    res = spacetime_map(dist, delay, omega_T=12.0, a0_omega=args.a0_omega,
                        model=ModelKind.from_name(args.model),
                        threads=args.threads, switching=switching,
                        rtol=args.tol_rel, atol=args.tol_abs)
    sigma = res.metadata["sigma_over_T"]
    lines = [f"# vharvest {__version__}", f"# figure: {name}",
             f"# model: {args.model}", f"# a0_omega: {_fmt(args.a0_omega)}",
             "# omega_T: 12",
             f"# switching: {'cropped_gaussian' if zoom else 'auto'}",
             f"# lightcone: d = tba +- {_fmt(8.0 * sigma)}",
             "# columns: tba_over_T,d_over_T,n2,n,sigmas_outside_lightcone"]
    for row in res.rows:
        tba, d = row.coords
        lines.append(",".join([_fmt(tba), _fmt(d), _fmt(row.n2), _fmt(row.n),
                               _fmt((d - tba) / sigma)]))
    (outdir / f"{name}.csv").write_text("\n".join(lines) + "\n")
    style = 'plot "{csv}" using 2:1:4 with image title "negativity"'
    (outdir / f"{name}.plt").write_text(_plot_script(
        name, f"{name}.csv", "d/T", "t_BA/T", zoom, style))


def _figure_fig7(args, outdir: Path):
    res = model_comparison(Axis("d_over_T", 0.5, 28.0, args.points),
                           omega_T=13.0, tba_over_T=10.0,
                           a0_omega=args.a0_omega, threads=args.threads,
                           rtol=args.tol_rel, atol=args.tol_abs)
    lines = [f"# vharvest {__version__}", "# figure: fig7",
             f"# a0_omega: {_fmt(args.a0_omega)}",
             "# omega_T: 13", "# tba_over_T: 10", "# theta: 0 (parallel orbitals)",
             "# columns: d_over_T,n_em,n_udw,n_derivative"]
    for d, em, udw, dv in res.rows:
        lines.append(",".join([_fmt(d), _fmt(em.n), _fmt(udw.n), _fmt(dv.n)]))
    (outdir / "fig7.csv").write_text("\n".join(lines) + "\n")
    style = ('plot "{csv}" using 1:2 with lines title "EM dipole", \\\n'
             '     "{csv}" using 1:3 with lines title "UdW scalar", \\\n'
             '     "{csv}" using 1:4 with lines title "derivative"')
    (outdir / "fig7.plt").write_text(_plot_script(
        "fig7", "fig7.csv", "d/T", "negativity", True, style))


_FIGURES = {"fig3": _figure_fig3, "fig4": _figure_fig4,
             "fig5a": lambda a, o: _figure_fig5(a, o, False),
             "fig5b": lambda a, o: _figure_fig5(a, o, True),
             "fig7": _figure_fig7}


def cmd_figure(args) -> int:
    if args.name not in _FIGURES:
        print(f"error: unknown figure {args.name!r}; choose from "
              f"{sorted(_FIGURES)}", file=sys.stderr)
        return 2
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        _FIGURES[args.name](args, outdir)
    except QuadratureConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {outdir / (args.name + '.csv')} and "
          f"{outdir / (args.name + '.plt')}")
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
    p.add_argument("--d", type=float, required=True, help="separation d/T")
    p.add_argument("--tba", type=float, default=0.0, help="switching delay t_BA/T")
    p.add_argument("--psi", type=float, default=0.0)
    p.add_argument("--theta", type=float, default=0.0,
                   help="relative orientation of the 2p_z axes")
    p.add_argument("--phi", type=float, default=0.0)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("scan", help="sweep one or two parameters")
    _add_common(p)
    p.add_argument("--axis", type=_parse_axis, action="append", required=True,
                   help="axis spec name:lo:hi:count[:log|linear]; repeatable")
    p.add_argument("--d", type=float, default=0.0)
    p.add_argument("--tba", type=float, default=0.0)
    p.add_argument("--psi", type=float, default=0.0)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--output", default=_env("OUTPUT", "-"),
                   help="output path; '-' for stdout")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 if any row fails to converge")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("figure", help="reproduce a figure dataset")
    _add_common(p)
    p.add_argument("name", help="fig3, fig4, fig5a, fig5b or fig7")
    p.add_argument("--points", type=int, default=_env("POINTS", 200),
                   help="points for 1D figures")
    p.add_argument("--nx", type=int, default=_env("NX", 40),
                   help="x resolution for map figures")
    p.add_argument("--ny", type=int, default=_env("NY", 40),
                   help="y resolution for map figures")
    p.add_argument("--output-dir", default=_env("OUTPUT_DIR", "."),
                   dest="output_dir")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("selfcheck", help="run every brute-force oracle")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--mutate", default=None, metavar="CONSTANT",
                   help="perturb one closed-form constant by 1e-6 to prove "
                        f"the oracles notice; one of {sorted(MUTABLE_CONSTANTS)}")
    p.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
