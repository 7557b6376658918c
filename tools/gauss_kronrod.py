"""Compute the (2n+1)-point Gauss-Kronrod rule on [-1, 1] with mpmath.

    python3 tools/gauss_kronrod.py [N]        print the rule for n = N (default 15)
    python3 tools/gauss_kronrod.py --check    check the tables against it

Works at 50 digits: the n Gauss nodes by Newton's method on P_n, started
from ``numpy.polynomial.legendre.leggauss``, and their weights 2/((1 - x^2)
P_n'(x)^2); the Stieltjes polynomial E = P_{n+1} + sum_i a_i P_{n+1-2i},
orthogonal to P_n x^k for k = 0..n (its coefficients from a linear system
of exact polynomial integrals); its n + 1 zeros, the Kronrod nodes, by
bisection between the Gauss nodes, which they interlace; and the Kronrod
weights from the moment equations sum_j w_j P_m(x_j) = 2 delta_m0, m =
0..2n.  (Laurie, Math. Comp. 66, 1997, gives the background; Piessens et
al., *QUADPACK*, 1983, tabulate the rules for n = 7, 10, 15, 20, 25, 30.)

Prints the table as ``specfun`` holds it, in QUADPACK's layout: the nodes
x > 0 from the end inward and then 0, their Kronrod weights, and the Gauss
weights of the Gauss nodes among them (every second one), to 33 digits.
--check exits 1 unless n = 7 gives QUADPACK's dqk15 table bit for bit (a
copy is below) and n = 15 gives ``vharvest.specfun``'s table bit for bit.
Takes about a second.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DIGITS = 50
NAMES = ("_XGK_HALF", "_WGK_HALF", "_WG_HALF")  # specfun's names of the printed table

# QUADPACK's dqk15 (Piessens et al., 1983), in the layout printed below
DQK15 = (
    (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
     0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
     0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
     0.207784955007898467600689403773245, 0.0),
    (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
     0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
     0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
     0.204432940075298892414161999234649, 0.209482141084727828012999174891714),
    (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
     0.381830050505118944950369775488975, 0.417959183673469387755102040816327),
)


def legendre(n: int, x) -> tuple:
    # P_0(x) .. P_n(x) by Bonnet's recurrence
    p = [mpmath.mpf(1), x]
    for j in range(1, n):
        p.append(((2 * j + 1) * x * p[j] - j * p[j - 1]) / (j + 1))
    return tuple(p[:n + 1])


def legendre_coeffs(n: int) -> list:
    # the monomial coefficients of P_0 .. P_n, lowest power first
    p = [[mpmath.mpf(1)], [mpmath.mpf(0), mpmath.mpf(1)]]
    for j in range(1, n):
        x_pj = [mpmath.mpf(0)] + p[j]
        prev = p[j - 1] + [mpmath.mpf(0)] * 2
        p.append([((2 * j + 1) * a - j * b) / (j + 1) for a, b in zip(x_pj, prev)])
    return p[:n + 1]


def integral(coeffs) -> mpmath.mpf:
    # int_{-1}^{1} of a polynomial given by its monomial coefficients
    return mpmath.fsum(2 * c / (j + 1) for j, c in enumerate(coeffs) if j % 2 == 0)


def product(a, b) -> list:
    out = [mpmath.mpf(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def gauss(n: int) -> tuple:
    """The n Gauss-Legendre nodes, ascending, and their weights."""
    nodes, weights = [], []
    for x0 in np.polynomial.legendre.leggauss(n)[0]:
        x = mpmath.mpf(float(x0))
        for _ in range(100):
            p = legendre(n, x)
            dp = n * (x * p[n] - p[n - 1]) / (x * x - 1)
            step = p[n] / dp
            x -= step
            if abs(step) < mpmath.mpf(10) ** (-DIGITS + 2):
                break
        else:
            raise RuntimeError(f"Newton's method did not converge at x = {x0}")
        p = legendre(n, x)
        dp = n * (x * p[n] - p[n - 1]) / (x * x - 1)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


def stieltjes(n: int) -> list:
    """The coefficients a_1.. of E = P_{n+1} + sum_i a_i P_{n+1-2i}, such
    that int E P_n x^k = 0 for k = 0..n (by parity, only odd k constrain)."""
    p = legendre_coeffs(n + 1)
    m = (n + 1) // 2
    ks = [k for k in range(n + 1) if k % 2 == 1]
    rows = [product(p[n], [mpmath.mpf(0)] * k + [mpmath.mpf(1)]) for k in ks]
    a = mpmath.matrix([[integral(product(p[n + 1 - 2 * i], row)) for i in range(1, m + 1)]
                       for row in rows])
    b = mpmath.matrix([-integral(product(p[n + 1], row)) for row in rows])
    return list(mpmath.lu_solve(a, b))


def kronrod(n: int) -> tuple:
    """The 2n + 1 nodes, ascending, their Kronrod weights and the Gauss
    weights of the odd-indexed ones (the Gauss nodes)."""
    g_nodes, g_weights = gauss(n)
    a = stieltjes(n)

    def e(x):
        p = legendre(n + 1, x)
        return p[n + 1] + mpmath.fsum(c * p[n + 1 - 2 * i] for i, c in enumerate(a, 1))

    bounds = [mpmath.mpf(-1)] + g_nodes + [mpmath.mpf(1)]
    zeros = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        f_lo = e(lo)
        if f_lo * e(hi) >= 0:
            raise RuntimeError(f"no sign change of E between {lo} and {hi}")
        for _ in range(4 * DIGITS):
            mid = (lo + hi) / 2
            f_mid = e(mid)
            if f_mid == 0:
                lo = hi = mid
                break
            if (f_mid < 0) == (f_lo < 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        zeros.append((lo + hi) / 2)
    nodes = [x for pair in zip(zeros, g_nodes + [None]) for x in pair if x is not None]
    system = mpmath.matrix([list(row) for row in zip(*(legendre(2 * n, x) for x in nodes))])
    weights = list(mpmath.lu_solve(system, mpmath.matrix([2] + [0] * (2 * n))))
    return nodes, weights, g_weights


def half_table(n: int) -> tuple:
    """The rule in QUADPACK's layout: the nodes x >= 0 from the end inward,
    their Kronrod weights, and the Gauss weights of every second one."""
    nodes, weights, g_weights = kronrod(n)
    return ([abs(x) for x in nodes[:n + 1]], weights[:n + 1], g_weights[:(n + 1) // 2])


def as_floats(table) -> tuple:
    return tuple(tuple(float(x) for x in column) for column in table)


def full(half) -> tuple:
    """The ascending arrays (nodes, Kronrod weights, Gauss weights) of the
    half table of an odd n, whose middle node is a Gauss node, as
    ``specfun`` forms them."""
    x, w, g = (np.array(c) for c in half)
    return (np.concatenate((-x[:-1], x[::-1])), np.concatenate((w[:-1], w[::-1])),
            np.concatenate((g, g[-2::-1])))


def check() -> list:
    """The differences of n = 7 from dqk15 and of n = 15 from specfun's
    table, bit for bit (signed zeros included), as messages."""
    mpmath.mp.dps = DIGITS
    sys.path.insert(0, str(ROOT / "src"))
    from vharvest import specfun

    faults = [f"n = 7: the {name} differ from dqk15" for name, a, b in zip(
        ("nodes", "Kronrod weights", "Gauss weights"), full(as_floats(half_table(7))), full(DQK15))
        if a.tobytes() != b.tobytes()]
    faults += [f"n = 15: specfun.{name} differs from the computed rule" for name, a, b in zip(
        ("_XGK", "_WGK", "_WG"), full(as_floats(half_table(15))),
        (specfun._XGK, specfun._WGK, specfun._WG)) if a.tobytes() != b.tobytes()]
    return faults


def main(argv: list) -> int:
    if argv == ["--check"]:
        faults = check()
        print("\n".join(faults) or "n = 7 gives QUADPACK's dqk15 table and n = 15 specfun's, "
              "bit for bit")
        return 1 if faults else 0
    if len(argv) > 1 or (argv and not (argv[0].isdigit() and int(argv[0]) >= 1)):
        print(__doc__, file=sys.stderr)
        return 2
    mpmath.mp.dps = DIGITS
    n = int(argv[0]) if argv else 15
    for name, column in zip(NAMES, half_table(n)):
        digits = [mpmath.nstr(x, 33, strip_zeros=False, min_fixed=-100, max_fixed=100)
                  for x in column]
        print(f"{name} = (")
        for i in range(0, len(digits), 2):
            print("    " + " ".join(f"{x}," for x in digits[i:i + 2]))
        print(")")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
