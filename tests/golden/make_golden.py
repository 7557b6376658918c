"""The golden copies of the five default figure datasets, and the rule that
compares a new run with them (``tests/test_golden.py``).

Each figure is computed as ``vharvest figure NAME`` computes it, with the
CLI's default flags, through the survey functions it calls; every scan
those functions run is kept whole.  One gzipped CSV per figure holds a row
per scan point: the scan's index (fig3 runs one scan per d/T block, fig7
one per model), the point's axis coordinates, ``n2``, ``n``,
``quad_error`` (the error of ``n2``, in its units), ``harvestable`` and
``converged``, floats to 17 significant digits.

Regenerate them, after a change that moves figure values on purpose, from
the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py
"""

from __future__ import annotations

import gzip
import math
import sys
from pathlib import Path

from vharvest import cli, survey
from vharvest.harvesting import ERROR_FACTOR

FIGURES = ("fig3", "fig4", "fig5a", "fig5b", "fig7")
HERE = Path(__file__).resolve().parent
_VALUES = ("n2", "n", "quad_error", "harvestable", "converged")


def scans(name: str) -> list:
    """The ScanResults of ``vharvest figure name`` at its default flags, in
    the order the figure runs them."""
    args = cli.build_parser().parse_args(["figure", name])
    dataset, results, run_grid = cli._FIGURES[name][0], [], survey.run_grid

    def kept(*a, **kw):
        results.append(run_grid(*a, **kw))
        return results[-1]

    survey.run_grid = kept
    try:
        dataset(args, cli._sweep_kw(args))
    finally:
        survey.run_grid = run_grid
    return results


def csv_text(results) -> str:
    """The golden CSV of a figure's scans: one '#' line per scan, the
    columns line, then a row per point."""
    axes = [a.name for a in results[0].grid.axes]
    lines = [f"# scan {i}: model {r.grid.model.value}, fixed {r.grid.fixed}"
             for i, r in enumerate(results)]
    lines.append("# columns: " + ",".join(("scan", *axes, *_VALUES)))
    for i, r in enumerate(results):
        for row in r.rows:
            cells = (i, *row.coords, *(getattr(row, key) for key in _VALUES))
            lines.append(",".join(map(cli._fmt, cells)))
    return "\n".join(lines) + "\n"


def path(name: str) -> Path:
    return HERE / f"{name}.csv.gz"


def read(text: str) -> list[dict]:
    """The rows of a golden CSV as dicts of floats, keyed by column."""
    lines = text.splitlines()
    columns = next(line for line in lines if line.startswith("# columns: "))[11:].split(",")
    return [dict(zip(columns, map(float, line.split(","))))
            for line in lines if not line.startswith("#")]


def violations(golden: list[dict], new: list[dict]) -> list[str]:
    """What breaks the golden rule between two runs of one figure: a row whose
    coordinates moved, an n2 or n outside the summed errors of the two rows
    (NaN only where both are NaN), a harvestable flag that flips where
    |n2| > ERROR_FACTOR x the error in both rows, or a point that converged
    in the golden run and no longer does."""
    if len(golden) != len(new):
        return [f"{len(new)} rows, golden {len(golden)}"]
    out = []
    for i, (g, n) in enumerate(zip(golden, new)):
        coords = [key for key in g if key not in _VALUES]
        if [g[key] for key in coords] != [n[key] for key in coords]:
            out.append(f"row {i}: coordinates {n} against golden {g}")
            continue
        where = f"row {i} at " + ", ".join(f"{key} = {g[key]:g}" for key in coords)
        both = g["quad_error"] + n["quad_error"]
        for key in ("n2", "n"):
            if math.isnan(g[key]) or math.isnan(n[key]):
                if not (math.isnan(g[key]) and math.isnan(n[key])):
                    out.append(f"{where}: {key} {n[key]!r}, golden {g[key]!r}")
            elif not abs(n[key] - g[key]) <= both:
                out.append(f"{where}: {key} {n[key]!r}, golden {g[key]!r}, "
                           f"beyond the summed errors {both:.3g}")
        if g["harvestable"] != n["harvestable"] and all(
                abs(r["n2"]) > ERROR_FACTOR * r["quad_error"] for r in (g, n)):
            out.append(f"{where}: harvestable {n['harvestable']:g}, golden {g['harvestable']:g}")
        if g["converged"] and not n["converged"]:
            out.append(f"{where}: converged in the golden run, not now")
    return out


def main() -> int:
    for name in FIGURES:
        text = csv_text(scans(name))
        # mtime 0: the same rows give the same bytes
        with open(path(name), "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as f:
            f.write(text.encode("ascii"))
        print(f"wrote {path(name)}: {text.count(chr(10)) - 1} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
