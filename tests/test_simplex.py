import inspect
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from gradedcy import simplex as simplex_module
from gradedcy.linalg import mat_det, mat_inv, mat_vec
from gradedcy.simplex import _pivot, solve_lp

from helpers import solve_lp_by_fractions


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
    """Integer pivots give, entry by entry, the tableau (N_r / d_r) and
    basis of the dense Fraction row rewrite, step by step along random
    pivot sequences with negative pivots among them; every row stays
    primitive over a positive denominator."""
    rng = random.Random(20261018)
    negative = 0
    for trial in range(200):
        m, n = rng.randrange(1, 6), rng.randrange(1, 8)
        ref = [[Fraction(rng.choice((0, 0, 0, 1, -1, 2, -3)),
                         rng.randrange(1, 4)) for _ in range(n + 1)]
               for _ in range(m + 1)]
        T = []
        for row in ref:
            d = math.lcm(*(v.denominator for v in row))
            T.append(([int(v * d) for v in row], d))
        basis = list(range(m))
        ref_basis = list(basis)
        for _ in range(4):
            choices = [(r, c) for r in range(m) for c in range(n)
                       if ref[r][c]]
            if not choices:
                break
            r, c = rng.choice(choices)
            negative += ref[r][c] < 0
            _pivot(T, basis, r, c)
            dense_pivot(ref, ref_basis, r, c)
            assert basis == ref_basis, trial
            for (N, d), want in zip(T, ref):
                assert d > 0 and math.gcd(d, *N) == 1, trial
                assert [Fraction(v, d) for v in N] == want, trial
    assert negative > 100


def _random_lp(rng):
    """A small LP with int and Fraction entries and b_i of either sign.
    Some have no rows; some repeat a row times 0, +-1, 2 or -1/2, which
    can leave an artificial basic at level zero."""
    m, n = rng.randrange(0, 5), rng.randrange(1, 6)

    def entry():
        u = rng.random()
        if u < 0.4:
            return 0
        if u < 0.8:
            return rng.randrange(-3, 4)
        return Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))

    A = [[entry() for _ in range(n)] for _ in range(m)]
    b = [entry() for _ in range(m)]
    if m >= 2 and rng.random() < 0.3:
        i, j = rng.sample(range(m), 2)
        k = rng.choice((0, 1, -1, 2, Fraction(-1, 2)))
        A[j], b[j] = [k * v for v in A[i]], k * b[i]
    return A, b, [entry() for _ in range(n)]


def _fraction_typed(res):
    values = [] if res.value is None else [res.value]
    for field in (res.x, res.dual, res.farkas):
        values += field or []
    return all(type(v) is Fraction for v in values)


def _lp_differential(lps):
    """(faults, statuses): the LPs on which solve_lp raises or differs from
    the Fraction-tableau oracle in any field or type, and a count of the
    oracle's statuses."""
    faults, statuses = [], Counter()
    for A, b, c in lps:
        want = solve_lp_by_fractions(A, b, c)
        statuses[want.status] += 1
        try:
            got = simplex_module.solve_lp(A, b, c)
        except Exception as exc:
            faults.append((A, b, c, repr(exc)))
            continue
        if got != want or not _fraction_typed(got):
            faults.append((A, b, c, got, want))
    return faults, statuses


def test_solve_lp_matches_fraction_oracle(monkeypatch):
    """Every LPResult field equals the Fraction tableau's, over 2 500
    seeded random LPs: optimal, infeasible and unbounded, with negative
    pivots and artificials left basic at level zero in phase two."""
    seen = Counter()
    pivot, phase = simplex_module._pivot, simplex_module._simplex_phase

    def counting_pivot(T, basis, row, col):
        seen["negative pivot"] += T[row][0][col] < 0
        pivot(T, basis, row, col)

    def counting_phase(T, basis, ncols):
        seen["artificial kept"] += any(j >= ncols for j in basis)
        return phase(T, basis, ncols)

    monkeypatch.setattr(simplex_module, "_pivot", counting_pivot)
    monkeypatch.setattr(simplex_module, "_simplex_phase", counting_phase)
    rng = random.Random(20261019)
    lps = [_random_lp(rng) for _ in range(2500)]
    faults, statuses = _lp_differential(lps)
    assert faults == []
    assert min(statuses[s] for s in ("optimal", "infeasible",
                                     "unbounded")) > 300, statuses
    assert sum(not A for A, _, _ in lps) > 300
    assert seen["negative pivot"] > 50 and seen["artificial kept"] > 50, seen


@pytest.mark.parametrize("name,old,new", [
    # the pivot row's sign not moved into N on a negative pivot
    ("_pivot", "if p < 0:", "if False:"),
    # the dual read one column to the right of the artificials
    ("solve_lp", "T[-1][0][n:n + m]", "T[-1][0][n + 1:n + m + 1]"),
    # a ratio test that drops N_r[col]
    ("_simplex_phase", "Nb[-1] * N[col]", "Nb[-1]"),
])
def test_lp_differential_catches_mutants(monkeypatch, name, old, new):
    source = inspect.getsource(getattr(simplex_module, name))
    assert source.count(old) == 1
    namespace = dict(vars(simplex_module))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(simplex_module, name, namespace[name])
    rng = random.Random(7)
    faults, _ = _lp_differential([_random_lp(rng) for _ in range(500)])
    assert faults


def test_ragged_row_is_rejected():
    with pytest.raises(ValueError, match="row 1 of A has length 1, not 2"):
        solve_lp([[1, 1], [1]], [1, 1], [1, 1])


def test_b_must_match_the_rows():
    with pytest.raises(ValueError, match=r"len\(b\) = 2 but A has 1 rows"):
        solve_lp([[1, 1]], [1, 2], [1, 1])


def test_c_must_match_the_columns():
    with pytest.raises(ValueError,
                       match=r"len\(c\) = 1 but A has 2 columns"):
        solve_lp([[1, 1]], [1], [1])
