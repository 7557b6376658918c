"""Check every point of the benchmark's reference sets against the current code.

    python3 tools/check_references.py [WORKLOAD ...]

Evaluates all 8,000 ``scatter_terms`` and 1,000 ``unequal_gaps`` pool pairs
and the 100 points of the ``spacetime_grid`` (fig5a) map, and checks each
against ``perfbench/references`` with ``perfbench/workloads.check``: a
point fails if it raised, is not finite, was retried at the loosened
tolerance, or moved from its reference by more than the two reported
quadrature errors.  Prints attempted and failed counts per workload (and
the first failures), then one SHA-256 per workload over every point's
values and errors in checking order (a failed point: its reason), so that
two trees give the same bits exactly when a ``diff`` of their outputs shows
only the timings.  Then one SHA-256 per default-resolution ``vharvest
figure`` CSV (fig3, fig4, fig5a, fig5b, fig7), each written to a temporary
directory, so that a ``diff`` shows the figure data unchanged too.  Exits 1
if any point failed or any figure exited nonzero.  Takes about 30 s on one
core.  The benchmark's files are only imported, never written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import struct
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # leave no cache files in perfbench/

import vharvest  # noqa: E402
import workloads  # noqa: E402
from vharvest import cli  # noqa: E402

CHECKED = ("scatter_terms", "unequal_gaps", "spacetime_grid")
FIGURES = ("fig3", "fig4", "fig5a", "fig5b", "fig7")


def outcomes(workload: str) -> list:
    """Every point of a workload's reference set, as workloads.check reads it."""
    if workload == "spacetime_grid":
        return [workloads.Outcome(i, record=row)
                for i, row in enumerate(workloads.fig5a_grid().rows)]
    params, found = workloads.pool_params(workload), []
    for i in range(workloads.POOL_SIZE[workload]):
        try:
            terms = vharvest.compute_terms(workloads.make_pair(params, i),
                                           include_cross=workload == "scatter_terms")
        except Exception as exc:  # a failed point is counted, not fatal
            found.append(workloads.Outcome(i, failure=f"raised {exc!r}"))
        else:
            found.append(workloads.Outcome(i, record=terms))
    return found


def digest(workload: str, found: list) -> str:
    """SHA-256 over each point's values and errors as doubles, in order."""
    h = hashlib.sha256()
    for o in found:
        record = workloads.to_record(workload, o)
        if record is None:
            h.update(o.failure.encode())
        else:
            for part in record:
                h.update(struct.pack(f"<{len(part)}d", *part.values()))
    return h.hexdigest()


def figure_digests() -> tuple[int, list]:
    """The count of figures that exited nonzero, and per figure the SHA-256
    of its default-resolution CSV (or its exit code)."""
    failed, lines = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        for name in FIGURES:
            with contextlib.redirect_stdout(io.StringIO()):  # its "wrote ..." line
                code = cli.main(["figure", name, "--output-dir", tmp])
            failed += code != 0
            csv = Path(tmp) / f"{name}.csv"
            lines.append(f"{name} exit {code}" if code else
                         f"{name} sha256 {hashlib.sha256(csv.read_bytes()).hexdigest()}")
    return failed, lines


def main(argv: list[str]) -> int:
    names = argv or list(CHECKED)
    unknown = sorted(set(names) - set(CHECKED))
    if unknown:
        print(f"unknown workload(s) {unknown}; choose from {list(CHECKED)}", file=sys.stderr)
        return 2
    failed, digests = 0, []
    for name in names:
        t0 = time.perf_counter()
        found = outcomes(name)
        result = workloads.check(name, workloads.BodyResult(outcomes=found))
        failed += result["failed"]
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']} "
              f"({time.perf_counter() - t0:.1f} s)")
        for line in result["failures"]:
            print(f"    {line}")
        digests.append(f"{name} sha256 {digest(name, found)}")
    t0 = time.perf_counter()
    figures_failed, lines = figure_digests()
    print(f"figures: {len(FIGURES)} written, {figures_failed} failed "
          f"({time.perf_counter() - t0:.1f} s)")
    print(*digests, *lines, sep="\n")
    return 1 if failed or figures_failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
