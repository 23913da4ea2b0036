"""Exact rational simplex for small feasibility problems.

Standard form: maximize c.x subject to A x = b, x >= 0, with Bland's rule
so termination is guaranteed.  Tableau row r is a pair (N, d) of ints with
d > 0, standing for N / d and kept primitive, so sign tests read N alone.
Two phases; phase one leaves either a feasible basis or a Farkas
certificate y with y.A >= 0 and y.b < 0.  At an optimum the dual y is read
off the objective row and checked exactly (y.A >= c, y.b = value), so
callers can verify the bound (A, b with the rows where b_i < 0 negated).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction


# status: 'optimal', 'infeasible' or 'unbounded'; x, value: the optimum
# or None; dual: y with y.A >= c (componentwise), y.b = value, or None;
# farkas: y with y.A >= 0, y.b < 0 when infeasible, else None
LPResult = namedtuple("LPResult", "status x value dual farkas")


def _check(ok, what):
    # an exact check that must hold: failing it is a bug, not bad input
    if not ok:
        raise RuntimeError(f"exact check failed: {what}")


def _primitive(N, d):
    g = math.gcd(d, *N)
    return ([v // g for v in N], d // g) if g > 1 else (N, d)


def _combine(y, rows, width):
    """sum_i y_i * rows_i for ints y_i and (N, d) rows of the given width,
    as an int list over the lcm L of the d; returns (list, L)."""
    lcm = math.lcm(*(d for _, d in rows))
    out = [0] * width
    for yi, (N, d) in zip(y, rows):
        if yi:
            f = yi * (lcm // d)
            out = [o + f * v for o, v in zip(out, N)]
    return out, lcm


def _pivot(T, basis, row, col):
    """Pivot in place.  The pivot row N / p takes p's sign into N; every
    other row with f = N_r[col] != 0 becomes (dp N_r - f N', d_r dp), where
    (N', dp) is the new pivot row.  Rows with f = 0 are not touched."""
    N, _ = T[row]
    p = N[col]
    if p < 0:
        N, p = [-v for v in N], -p
    T[row] = (Np, dp) = _primitive(N, p)
    for r, (Nr, dr) in enumerate(T):
        f = Nr[col]
        if r != row and f:
            T[r] = _primitive([dp * a - f * v for a, v in zip(Nr, Np)],
                              dr * dp)
    basis[row] = col


def _simplex_phase(T, basis, ncols):
    """Maximize; objective row is T[-1] with reduced costs negated in the
    usual tableau convention (row = c_B B^-1 A - c)."""
    m = len(T) - 1
    while True:
        obj = T[-1][0]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return "optimal"
        best = None
        for r in range(m):
            N = T[r][0]
            # least ratio N[-1] / N[col] (d_r cancels; cross-multiplied),
            # ties to the least basic variable
            if N[col] > 0 and (best is None or (N[-1] * Nb[col], basis[r])
                               < (Nb[-1] * N[col], basis[best])):
                best, Nb = r, N
        if best is None:
            return "unbounded"
        _pivot(T, basis, best, col)


def _exact_row(values):
    """(N, d) with N / d equal to the values (ints or Fractions)."""
    values = [v if isinstance(v, int) else Fraction(v) for v in values]
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def solve_lp(A, b, c):
    """Maximize c.x st A x = b, x >= 0 (all entries Fractions or ints)."""
    m = len(A)
    n = len(A[0]) if m else len(c)
    for i, row in enumerate(A):
        if len(row) != n:
            raise ValueError(f"row {i} of A has length {len(row)}, not {n}")
    if len(b) != m:
        raise ValueError(f"len(b) = {len(b)} but A has {m} rows")
    if len(c) != n:
        raise ValueError(f"len(c) = {len(c)} but A has {n} columns")
    # rows (A_i | b_i) over one denominator each, negated where b_i < 0
    rows = [_exact_row([*A[i], b[i]]) for i in range(m)]
    rows = [([-v for v in N] if N[-1] < 0 else N, d) for N, d in rows]

    # phase 1: artificials, objective -sum of the rows off their columns
    total = n + m
    T = [(N[:n] + [d * (j == i) for j in range(m)] + N[n:], d)
         for i, (N, d) in enumerate(rows)]
    obj, lcm = _combine([-1] * m, rows, n + 1)
    T.append(_primitive(obj[:n] + [0] * m + obj[n:], lcm))
    basis = [n + i for i in range(m)]
    _simplex_phase(T, basis, total)
    N, d = T[-1]
    if N[-1] < 0:
        # infeasible: the phase-1 duals y at the artificial columns give, up
        # to sign, y.A >= 0 and y.b < 0, absurd as y.A.x = y.b for x >= 0
        y = [N[n + i] - d for i in range(m)]
        ya, _ = _combine(y, rows, n + 1)
        if ya[n] > 0:  # the sign with y.b < 0
            y, ya = [-v for v in y], [-v for v in ya]
        _check(all(v >= 0 for v in ya[:n]) and ya[n] < 0,
               "Farkas certificate y.A >= 0, y.b < 0")
        return LPResult("infeasible", None, None, None,
                        [Fraction(v, d) for v in y])

    # drive artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if T[r][0][j]), None)
            if col is not None:
                _pivot(T, basis, r, col)

    # phase 2 (pivot columns restricted to the originals, so artificials
    # cannot re-enter), objective (sum of c_B-weighted rows) - c, c = cn / cd
    cn, cd = _exact_row(c)
    obj, k = _combine([cn[j] if j < n else 0 for j in basis], T[:m], total + 1)
    T[-1] = _primitive([o - k * v for o, v in zip(obj, cn)] + obj[n:], cd * k)
    if _simplex_phase(T, basis, n) == "unbounded":
        return LPResult("unbounded", None, None, None, None)
    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(T[r][0][-1], T[r][1])
    value = sum(Fraction(cj, cd) * xj for cj, xj in zip(cn, x))
    # dual y = c_B B^-1 at the artificial columns (an artificial basic at
    # level zero costs zero), the unique solution of y.A_B = c_B
    y, d = T[-1][0][n:n + m], T[-1][1]
    ya, lcm = _combine(y, rows, n + 1)
    _check(all(v * cd >= cj * d * lcm for v, cj in zip(ya, cn))
           and ya[n] == value * d * lcm, "optimal dual y.A >= c, y.b = value")
    return LPResult("optimal", x, value, [Fraction(v, d) for v in y], None)
