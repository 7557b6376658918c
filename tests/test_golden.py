"""The five default figure datasets against their golden copies
(``tests/golden``): every n2 and n within the summed errors of the golden
row and the new one, a harvestable flag changed only where |n2| is within
ERROR_FACTOR x an error, and no point that stops converging."""

import gzip

import pytest

from golden import make_golden
from vharvest import harvesting


def _violations(names):
    out, same = [], []
    for name in names:
        text = make_golden.csv_text(make_golden.scans(name))
        golden = gzip.decompress(make_golden.path(name).read_bytes()).decode("ascii")
        same.append(text == golden)
        out += [f"{name} {v}" for v in make_golden.violations(
            make_golden.read(golden), make_golden.read(text))]
    return out, same


def test_figures_stay_within_their_golden_errors():
    out, same = _violations(make_golden.FIGURES)
    print("figures byte-identical to their golden copies: "
          + ", ".join(f"{n} {'yes' if s else 'no'}" for n, s in zip(make_golden.FIGURES, same)))
    assert not out, "\n".join(out[:20])


def test_golden_rule_catches_a_one_in_a_million_change_of_em_m(monkeypatch):
    # fig7's EM scan and fig3 carry M's EM coefficient
    monkeypatch.setattr(harvesting, "EM_NONLOCAL_COEFF",
                        harvesting.EM_NONLOCAL_COEFF * (1.0 + 1e-6))
    out, _ = _violations(("fig3", "fig7"))
    assert out


@pytest.mark.parametrize("change, caught", [
    (lambda r: r.update(n2=r["n2"] + 1.5 * r["quad_error"]), False),
    (lambda r: r.update(n2=r["n2"] + 3.0 * r["quad_error"]), True),
    (lambda r: r.update(converged=0.0), True),
    (lambda r: r.update(harvestable=0.0), True),
])
def test_golden_rule_on_one_changed_row(change, caught):
    # fig3's first row, n2 far above 10 x its error: within the summed
    # errors (twice its own) n2 may move, and its flag may not flip
    rows = make_golden.read(gzip.decompress(make_golden.path("fig3").read_bytes()).decode())
    new = [dict(r) for r in rows]
    change(new[0])
    assert len(make_golden.violations(rows, new)) == caught
