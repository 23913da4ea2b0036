"""The elimination kernel and its dense wrappers, each checked against a
property that needs no second elimination: planted ranks and spans,
matrix products and the Leibniz expansion."""

import itertools
import random
from fractions import Fraction

import pytest

from gradedcy.linalg import (SparseEliminator, mat_det, mat_inv, mat_mul,
                             mat_vec, nullspace_with_free)
from helpers import solve


def rand_entry(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def planted(rng, nrows, ncols, k):
    """M = L R of rank exactly k: L (nrows x k) has the identity on the rows
    `marks`, R (k x ncols) has the identity on k chosen columns.  A vector
    b lies in the column span of M iff b = L b[marks]."""
    marks = rng.sample(range(nrows), k)
    L = [[rand_entry(rng) for _ in range(k)] for _ in range(nrows)]
    for t, i in enumerate(marks):
        L[i] = [Fraction(int(t == s)) for s in range(k)]
    cols = rng.sample(range(ncols), k)
    R = [[rand_entry(rng) if rng.random() < 0.6 else Fraction(0)
          for _ in range(ncols)] for _ in range(k)]
    for t, j in enumerate(cols):
        for s in range(k):
            R[s][j] = Fraction(int(s == t))
    M = mat_mul(L, R) if k else [[Fraction(0)] * ncols
                                 for _ in range(nrows)]
    return M, L, marks


def in_span(L, marks, b):
    return mat_vec(L, [b[i] for i in marks]) == list(b)


def dense(vec, n):
    return [vec.get(j, 0) for j in range(n)]


@pytest.mark.parametrize("seed", range(40))
def test_nullspace_with_free(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
    k = rng.randint(0, min(nrows, ncols))
    M, _, _ = planted(rng, nrows, ncols, k)
    basis, free = nullspace_with_free(M)
    assert k + len(basis) == ncols            # rank + nullity
    assert len(free) == len(basis)
    for f, v in zip(free, basis):
        assert mat_vec(M, dense(v, ncols)) == [0] * nrows
        assert {j: v.get(j, 0) for j in free} == \
            {j: int(j == f) for j in free}
        assert all(type(x) is Fraction and x for x in v.values())


def test_nullspace_without_rows():
    basis, free = nullspace_with_free([], ncols=3)
    assert free == [0, 1, 2]
    assert basis == [{0: 1}, {1: 1}, {2: 1}]


@pytest.mark.parametrize("seed", range(40))
def test_solve(seed):
    rng = random.Random(100 + seed)
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    k = rng.randint(0, min(nrows, ncols))
    M, L, marks = planted(rng, nrows, ncols, k)
    y = [rand_entry(rng) for _ in range(ncols)]
    for b in (mat_vec(M, y), [rand_entry(rng) for _ in range(nrows)]):
        x = solve(M, b)
        if in_span(L, marks, b):
            assert x is not None and mat_vec(M, x) == b
            assert all(type(t) is Fraction for t in x)
        else:
            assert x is None


@pytest.mark.parametrize("seed", range(30))
def test_mat_inv(seed):
    rng = random.Random(200 + seed)
    n = rng.randint(1, 5)
    A, _, _ = planted(rng, n, n, n)
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    assert mat_mul(A, mat_inv(A)) == identity
    S, _, _ = planted(rng, n, n, rng.randint(0, n - 1))
    with pytest.raises(ZeroDivisionError):
        mat_inv(S)


@pytest.mark.parametrize("fn", [mat_inv, mat_det])
@pytest.mark.parametrize("matrix,shape", [
    ([[1, 0, 5], [0, 1, 0]], "2 rows of length 3"),
    ([[1, 0], [0, 1], [0, 0]], "3 rows of length 2"),
    ([[1, 0], [0]], "2 rows of length 1/2"),
    ([[]], "1 rows of length 0")])
def test_inverse_and_determinant_refuse_a_matrix_that_is_not_square(
        fn, matrix, shape):
    """A matrix that is not square is refused with its shape named, not
    answered: the identity block of mat_inv overwrote the third column of
    [[1, 0, 5], [0, 1, 0]] and returned the 2 x 2 identity, and mat_det
    returned 1."""
    with pytest.raises(ValueError, match=f"not a square matrix: {shape}$"):
        fn(matrix)


@pytest.mark.parametrize("call,message", [
    (lambda: mat_vec([[1, 2]], [1]),
     "cannot apply 1 rows of length 2 to a vector of length 1"),
    (lambda: mat_vec([[1], [1, 2]], [1, 2]),
     "cannot apply 2 rows of length 1/2 to a vector of length 2"),
    (lambda: mat_mul([[1, 2]], [[1]]),
     "cannot multiply 1 rows of length 2 by 1 rows of length 1"),
    (lambda: mat_mul([[1, 2]], [[1, 2], [3]]),
     "cannot multiply 1 rows of length 2 by 2 rows of length 1/2"),
    (lambda: mat_mul([[1]], [[1], [2]]),
     "cannot multiply 1 rows of length 1 by 2 rows of length 1")])
def test_products_refuse_shapes_that_do_not_fit(call, message):
    """A product whose shapes do not fit is refused with both shapes
    named: mat_vec([[1, 2]], [1]) returned [1] and mat_mul([[1, 2]],
    [[1]]) returned [[1]], each dropping a column."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
    assert mat_vec([[1, 2], [3, 4]], [1, 1]) == [3, 7]
    assert mat_mul([[1, 2]], [[1], [1]]) == [[3]]
    assert mat_mul([], [[1]]) == [] and mat_vec([], [1]) == []


def leibniz(A):
    n = len(A)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= A[i][j]
        total += term
    return total


@pytest.mark.parametrize("seed", range(40))
def test_mat_det(seed):
    rng = random.Random(300 + seed)
    n = rng.randint(0, 5)
    dens = rng.choice([0.3, 0.7, 1.0])
    A = [[rand_entry(rng) if rng.random() < dens else 0 for _ in range(n)]
         for _ in range(n)]
    assert mat_det(A) == leibniz(A)


def check_reduce(el, B, marks, vec):
    """The result has no pivot index, and vec - result lies in span(B),
    where each row of B is 1 at its own mark and 0 at the other marks."""
    red = el.reduce(vec)
    assert not set(red) & set(el.pivots)
    assert all(red.values())
    d = {j: vec.get(j, 0) - red.get(j, 0) for j in set(vec) | set(red)}
    comb = {}
    for b, m in zip(B, marks):
        for j, x in b.items():
            comb[j] = comb.get(j, 0) + d.get(m, 0) * x
    assert {j: x for j, x in d.items() if x} == \
        {j: x for j, x in comb.items() if x}
    return red


@pytest.mark.parametrize("seed", range(40))
def test_reduce_random_spans(seed):
    rng = random.Random(400 + seed)
    n = rng.randint(2, 10)
    marks = rng.sample(range(n), rng.randint(1, n - 1))
    B = []
    for m in marks:
        row = {j: rand_entry(rng) for j in range(n)
               if j not in marks and rng.random() < 0.5}
        row[m] = Fraction(1)
        B.append({j: x for j, x in row.items() if x})
    # feed the eliminator a unitriangular recombination of B
    el = SparseEliminator()
    order = rng.sample(range(len(B)), len(B))
    for pos, i in enumerate(order):
        vec = dict(B[i])
        for t in order[pos + 1:]:
            c = rand_entry(rng) if rng.random() < 0.4 else 0
            for j, x in B[t].items():
                vec[j] = vec.get(j, 0) + c * x
        assert el.add({j: x for j, x in vec.items() if x}) is True
    assert el.rank == len(B)
    for _ in range(5):
        vec = {j: rand_entry(rng) for j in range(n) if rng.random() < 0.6}
        check_reduce(el, B, marks, {j: x for j, x in vec.items() if x})
        assert el.contains(B[rng.randrange(len(B))])


def test_reduce_brings_back_a_pivot_index():
    """Clearing index 1 with the row at pivot 1 brings in index 2, itself
    a pivot, which a pass over the sorted indices of the input misses."""
    el = SparseEliminator()
    el.add({1: 1, 2: 1})
    el.add({2: 1})
    assert set(el.pivots) == {1, 2}
    red = check_reduce(el, [{1: 1}, {2: 1}], [1, 2], {1: 1, 3: 5})
    assert red == {3: 5}


def test_rref_zero_at_other_pivots():
    el = SparseEliminator()
    for vec in ({0: 1, 1: 2, 3: 1}, {1: 1, 2: 1}, {2: 1, 3: 4}):
        el.add(vec)
    rows = el.rref()
    for p, row in rows.items():
        assert row[p] == 1
        assert all(q not in row for q in rows if q != p)
    assert rows == {0: {0: 1, 3: 9}, 1: {1: 1, 3: -4}, 2: {2: 1, 3: 4}}


def test_pivot_of_one_keeps_integer_rows():
    """A pivot entry of 1 keeps the row and -1 negates it, so integer rows
    stay integer; any other pivot divides, as a Fraction."""
    el = SparseEliminator()
    assert el.add({0: 1, 2: 3}) is True and el.row(0) == {0: 1, 2: 3}
    assert el.add({1: -1, 2: 4}) is True and el.row(1) == {1: 1, 2: -4}
    assert el.add({2: 2, 3: 1}) is True and \
        el.row(2) == {2: 1, 3: Fraction(1, 2)}
    assert all(type(x) is int for p in (0, 1) for x in el.row(p).values())
    assert type(el.row(2)[3]) is Fraction
    assert el.contains({0: 1, 1: 1, 3: Fraction(1, 2)})


def test_unit_pivots_keep_no_row():
    """A vector that arrives with one entry, or reduces to one entry, is
    kept as its pivot index alone; a one-entry vector at a longer row is
    reduced, and `row` and `rref` expand the unit rows."""
    el = SparseEliminator()
    assert el.add({3: Fraction(2, 3)}) is True
    assert el.add({1: 1, 2: 5}) is True
    assert el.add({1: 1, 2: 1, 3: 4}) is True      # reduces to {2: -4}
    assert el.pivots == {3: None, 1: {1: 1, 2: 5}, 2: None}
    assert el.row(3) == {3: 1} and el.row(2) == {2: 1}
    assert el.add({3: -7}) is False and el.add({2: 1, 3: 1}) is False
    assert el.reduce({1: 1, 2: 1, 4: 2}) == {4: 2}
    assert el.rref() == {3: {3: 1}, 1: {1: 1}, 2: {2: 1}}
    el = SparseEliminator()
    el.add({0: 1, 1: 1})
    assert el.add({0: 3}) is True                   # reduces to {1: -3}
    assert el.pivots == {0: {0: 1, 1: 1}, 1: None}
    assert el.add({0: 2}) is False and el.rank == 2
    assert el.contains({0: 1}) and not el.contains({2: 1})


def test_dense_helpers_answer_in_fractions():
    """Integer input still gives Fraction answers (their JSON is strings)."""
    basis, free = nullspace_with_free([[1, 2, 0], [0, 0, 1]])
    assert free == [1] and basis == [{1: 1, 0: -2}]
    x = solve([[1, 0], [0, -1]], [3, 4])
    inv = mat_inv([[1, 1], [0, -1]])
    det = mat_det([[2, 1], [1, 1]])
    assert x == [3, -4] and inv == [[1, 1], [0, -1]] and det == 1
    values = [v for vec in basis for v in vec.values()] + x + inv[0] + \
        inv[1] + [det]
    assert all(type(v) is Fraction for v in values)


def _typed(row):
    return [(k, type(x), x) for k, x in row.items()]


def _random_sparse(rng, width):
    """A sparse vector with int or Fraction entries, single-entry six
    times in ten."""
    size = 1 if width == 1 or rng.random() < 0.6 else \
        rng.randint(2, min(5, width))
    out = {}
    for j in rng.sample(range(width), size):
        if rng.random() < 0.5:
            out[j] = rng.choice([-2, -1, 1, 1, 2, 3])
        else:
            out[j] = Fraction(rng.choice([-3, -1, 1, 1, 2]),
                              rng.choice([1, 1, 2, 3]))
    return out


def _row_fault(fast, slow, p):
    """True unless the rows at pivot p agree, entry types and order
    included; a unit pivot stores no entry, so there only the value is
    compared."""
    if p not in fast.pivots:
        return True
    if fast.pivots[p] is None:
        return slow.row(p) != {p: 1}
    return _typed(fast.row(p)) != _typed(slow.row(p))


def _oracle_faults(rng):
    """(vectors added, one-entry vectors among them, faults), where a fault
    is an add whose answer, input or stored row differs from adding every
    vector through `reduce`, or a span whose pivots and rows differ."""
    from helpers import ReducingEliminator

    vectors = monomials = 0
    faults = []
    for trial in range(100):
        fast, slow = SparseEliminator(), ReducingEliminator()
        width = rng.randint(3, 16)
        for _ in range(rng.randint(10, 40)):
            vec = _random_sparse(rng, width)
            before = dict(vec)
            got, want = fast.add(vec), slow.add(dict(vec))
            if vec != before or got is not (want is not None):
                faults.append((trial, vectors))
            elif want is not None:
                p = min(want)
                if fast.pivots.get(p) is vec or _row_fault(fast, slow, p):
                    faults.append((trial, vectors))   # kept or differs
            vectors += 1
            monomials += len(vec) == 1
        if fast.rank != slow.rank or list(fast.pivots) != list(slow.pivots) \
                or any(_row_fault(fast, slow, p) for p in fast.pivots):
            faults.append((trial, "span"))
    return vectors, monomials, faults


def test_add_matches_the_reducing_oracle():
    """`add` with its monomial fast path and unit pivots stores the same
    rows as adding every vector through `reduce`: same answers, ranks,
    pivots and rows, entry types included (a row that is not a unit
    vector keeps the oracle's ints and Fractions)."""
    vectors, monomials, faults = _oracle_faults(random.Random(8080))
    assert faults == []
    assert vectors >= 2000 and monomials > vectors // 2


def test_reducing_oracle_catches_a_unit_pivot_mutant(monkeypatch):
    """Taking a one-entry vector at a pivot whose row is longer for one
    already in the span, without reducing it, is caught by the oracle."""
    from helpers import unit_pivot_mutant_add

    monkeypatch.setattr(SparseEliminator, "add", unit_pivot_mutant_add())
    assert _oracle_faults(random.Random(8080))[2]


def _answers():
    """nullspace_with_free, solve, mat_inv and mat_det on 200 seeded
    random matrices with many one-entry rows; exceptions are answers."""
    rng = random.Random(9090)
    out = []
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [dense(_random_sparse(rng, n), n) for _ in range(n)]
        rhs = [rng.choice([0, 1, Fraction(-1, 2)]) for _ in range(n)]
        for fn, args in ((nullspace_with_free, (rows,)),
                         (solve, (rows, rhs)), (mat_inv, (rows,)),
                         (mat_det, (rows,))):
            try:
                got = fn(*args)
            except ZeroDivisionError as e:
                got = e.args
            out.append(repr(got))
    return out


def test_dense_wrappers_match_the_reducing_oracle(monkeypatch):
    from helpers import ReducingEliminator

    fast = _answers()
    monkeypatch.setattr(SparseEliminator, "add", ReducingEliminator.add)
    assert _answers() == fast
