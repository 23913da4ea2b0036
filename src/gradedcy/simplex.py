"""Exact rational simplex for small feasibility problems.

Standard form: maximize c.x subject to A x = b, x >= 0, over Fractions,
with Bland's rule so termination is guaranteed.  Two phases; phase one
leaves either a feasible basis or a Farkas certificate y with y.A <= 0
and y.b > 0.  Optimality returns the dual vector so callers can verify
the bound independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass
class LPResult:
    status: str          # 'optimal', 'infeasible', 'unbounded'
    x: list | None
    value: Fraction | None
    dual: list | None    # y with y.A >= c (componentwise), y.b = value
    farkas: list | None  # y with y.A <= 0, y.b > 0 when infeasible


def _pivot(T, basis, row, col):
    """Pivot in place, touching each row only at the pivot row's nonzero
    columns."""
    prow = T[row]
    piv = prow[col]
    support = [j for j, v in enumerate(prow) if v]
    for j in support:
        prow[j] /= piv
    for r, trow in enumerate(T):
        f = trow[col]
        if r != row and f:
            for j in support:
                trow[j] -= f * prow[j]
    basis[row] = col


def _simplex_phase(T, basis, ncols):
    """Maximize; objective row is T[-1] with reduced costs negated in the
    usual tableau convention (row = c_B B^-1 A - c)."""
    m = len(T) - 1
    while True:
        col = next((j for j in range(ncols) if T[-1][j] < 0), None)
        if col is None:
            return "optimal"
        best = None
        for r in range(m):
            if T[r][col] > 0:
                ratio = T[r][-1] / T[r][col]
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[r] < basis[best[1]]):
                    best = (ratio, r)
        if best is None:
            return "unbounded"
        _pivot(T, basis, best[1], col)


def solve_lp(A, b, c):
    """Maximize c.x st A x = b, x >= 0 (all entries Fractions or ints)."""
    m = len(A)
    n = len(A[0]) if m else len(c)
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]

    # phase 1: artificials
    total = n + m
    T = []
    for i in range(m):
        T.append(A[i] + [Fraction(int(j == i)) for j in range(m)] + [b[i]])
    obj = [Fraction(0)] * total + [Fraction(0)]
    for i in range(m):
        obj = [o - a for o, a in zip(obj, T[i])]
    for j in range(n, total):
        obj[j] = Fraction(0)
    T.append(obj)
    basis = [n + i for i in range(m)]
    _simplex_phase(T, basis, total)
    if -T[-1][-1] > 0:
        # infeasible: Farkas certificate y with y.A >= 0 and y.b < 0
        # (then 0 <= y.A.x = y.b < 0 is absurd for any feasible x >= 0),
        # read off the phase-1 duals at the artificial columns.
        y = [T[-1][n + i] - 1 for i in range(m)]
        ya = [sum(y[i] * A[i][j] for i in range(m)) for j in range(n)]
        yb = sum(y[i] * b[i] for i in range(m))
        if not (all(v >= 0 for v in ya) and yb < 0):
            y = [-v for v in y]
            ya = [-v for v in ya]
            yb = -yb
        assert all(v >= 0 for v in ya) and yb < 0, "bad Farkas certificate"
        return LPResult("infeasible", None, None, None, y)

    # drive artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if T[r][j]), None)
            if col is not None:
                _pivot(T, basis, r, col)

    # phase 2 (pivot columns restricted to the originals, so artificials
    # cannot re-enter)
    T[-1] = [Fraction(0)] * (total + 1)
    for j in range(n):
        T[-1][j] = -c[j]
    for r in range(m):
        bj = basis[r]
        if bj < n and c[bj]:
            f = c[bj]
            T[-1] = [o + f * v for o, v in zip(T[-1], T[r])]
    status = _simplex_phase(T, basis, n)
    if status == "unbounded":
        return LPResult("unbounded", None, None, None, None)
    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = T[r][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    # dual vector from the final basis: solve y . A_B = c_B exactly
    # (an artificial in the basis at level zero contributes cost zero)
    from .linalg import solve as _solve

    cols = basis
    mat = [[A[i][j] if j < n else Fraction(int(i == j - n))
            for j in cols] for i in range(m)]
    cb = [c[j] if j < n else Fraction(0) for j in cols]
    mat_t = [[mat[i][r] for i in range(m)] for r in range(m)]
    y = _solve(mat_t, cb)
    assert y is not None, "degenerate final basis"
    return LPResult("optimal", x, value, y, None)
