import itertools
import random
from fractions import Fraction

from gradedcy.linalg import mat_det, mat_inv, mat_vec
from gradedcy.simplex import _pivot, solve_lp


def brute_force_lp(A, b, c):
    """Enumerate basic solutions of Ax = b, x >= 0 and take the best;
    independent of the simplex path.  Returns (status, value)."""
    m, n = len(A), len(A[0])
    best = None
    feasible = False
    for cols in itertools.combinations(range(n), m):
        sub = [[Fraction(A[i][j]) for j in cols] for i in range(m)]
        if mat_det(sub) == 0:
            continue
        x_b = mat_vec(mat_inv(sub), [Fraction(v) for v in b])
        if any(v < 0 for v in x_b):
            continue
        feasible = True
        x = [Fraction(0)] * n
        for j, v in zip(cols, x_b):
            x[j] = v
        val = sum(ci * xi for ci, xi in zip(c, x))
        if best is None or val > best:
            best = val
    if not feasible:
        return ("infeasible", None)
    return ("optimal", best)


def test_simplex_against_vertex_enumeration():
    rng = random.Random(20260810)
    agree = 0
    for trial in range(60):
        m = rng.randrange(1, 4)
        n = rng.randrange(m + 1, m + 4)
        A = [[Fraction(rng.randrange(-2, 3)) for _ in range(n)]
             for _ in range(m)]
        b = [Fraction(rng.randrange(0, 4)) for _ in range(m)]
        c = [Fraction(rng.randrange(-2, 3)) for _ in range(n)]
        # keep the region bounded so the oracle is total: add a row
        # x_1 + ... + x_n + s = 10 with a fresh slack
        A = [row + [Fraction(0)] for row in A]
        A.append([Fraction(1)] * n + [Fraction(1)])
        b.append(Fraction(10))
        c = c + [Fraction(0)]
        res = solve_lp(A, b, c)
        status, value = brute_force_lp(A, b, c)
        assert res.status == status, (trial, res.status, status)
        if status == "optimal":
            assert res.value == value, (trial, res.value, value)
            # verify the primal solution exactly
            for i, row in enumerate(A):
                assert sum(r * x for r, x in zip(row, res.x)) == b[i]
            assert all(x >= 0 for x in res.x)
            # weak duality certificate
            ya = [sum(res.dual[i] * A[i][j] for i in range(len(A)))
                  for j in range(len(c))]
            assert all(v >= cj for v, cj in zip(ya, c))
            yb = sum(res.dual[i] * b[i] for i in range(len(b)))
            assert yb == res.value
        else:
            y = res.farkas
            ya = [sum(y[i] * A[i][j] for i in range(len(A)))
                  for j in range(len(c))]
            yb = sum(y[i] * b[i] for i in range(len(b)))
            assert all(v >= 0 for v in ya) and yb < 0
        agree += 1
    assert agree == 60


def dense_pivot(T, basis, row, col):
    """Reference pivot: rewrite every affected row over all columns."""
    piv = T[row][col]
    T[row] = [v / piv for v in T[row]]
    for r in range(len(T)):
        if r != row and T[r][col]:
            f = T[r][col]
            T[r] = [a - f * b for a, b in zip(T[r], T[row])]
    basis[row] = col


def test_pivot_matches_dense_reference():
    """Sparse in-place pivots give the tableau and basis of the dense
    row rewrite, step by step along a random pivot sequence."""
    rng = random.Random(20261018)
    for trial in range(200):
        m, n = rng.randrange(1, 6), rng.randrange(1, 8)
        T = [[Fraction(rng.choice((0, 0, 0, 1, -1, 2, -3)),
                       rng.randrange(1, 4)) for _ in range(n + 1)]
             for _ in range(m + 1)]
        basis = list(range(m))
        ref, ref_basis = [list(r) for r in T], list(basis)
        for _ in range(4):
            choices = [(r, c) for r in range(m) for c in range(n) if T[r][c]]
            if not choices:
                break
            r, c = rng.choice(choices)
            _pivot(T, basis, r, c)
            dense_pivot(ref, ref_basis, r, c)
            assert T == ref and basis == ref_basis, trial
