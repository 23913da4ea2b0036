"""Small exact linear algebra kit over the rationals.

Sparse vectors are dicts index -> exact number (int or Fraction) with
zero entries absent.  All elimination goes through one kernel,
`SparseEliminator`; the dense helpers (`nullspace_with_free`, `solve`,
`mat_inv`, `mat_det`) take matrices as lists of rows (entries Fractions or
ints), hand their nonzero entries to it as Fractions and read the answer
off its reduced row echelon form, so their answers are Fractions.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush


def vec_add(u, v, c=1):
    """u + c*v for sparse dict vectors; returns a new dict without zeros."""
    out = dict(u)
    for k, x in v.items():
        y = out.get(k, 0) + c * x
        if y:
            out[k] = y
        else:
            out.pop(k, None)
    return out


class SparseEliminator:
    """Incremental row reduction of sparse dict vectors over Q.

    Rows are kept pivot-normalized: the row at pivot p has 1 at p and no
    index below p.  `add(vec)` reduces vec against the current span and
    either absorbs it (returning the reduced nonzero row) or returns None
    when vec was already in the span.  A row whose pivot entry is already
    1 or -1 is kept or negated rather than divided, so integer rows stay
    integer.
    """

    def __init__(self):
        self.pivots = {}  # pivot index -> normalized row (dict)

    def reduce(self, vec):
        """vec minus the element of the span that clears every pivot index.

        Subtracting the row at pivot k only touches indices >= k, so taking
        pending pivot indices from a heap in increasing order clears them
        all in one pass.
        """
        vec = dict(vec)
        pivots = self.pivots
        heap = [k for k in vec if k in pivots]
        heapify(heap)
        while heap:
            k = heappop(heap)
            c = vec.get(k)
            if not c:
                continue
            for j, x in pivots[k].items():
                y = vec.get(j, 0) - c * x
                if y:
                    if j not in vec and j in pivots:
                        heappush(heap, j)
                    vec[j] = y
                else:
                    vec.pop(j, None)
        return vec

    def add(self, vec):
        # a monomial whose index is not a pivot is already reduced
        new = len(vec) == 1 and next(iter(vec)) not in self.pivots
        vec = dict(vec) if new else self.reduce(vec)
        if not vec:
            return None
        p = min(vec)
        c = vec[p]
        if c == 1:
            row = vec
        elif c == -1:
            row = {k: -x for k, x in vec.items()}
        else:
            c = Fraction(c)
            row = {k: x / c for k, x in vec.items()}
        self.pivots[p] = row
        return row

    def contains(self, vec):
        return not self.reduce(vec)

    @property
    def rank(self):
        return len(self.pivots)

    def rref(self):
        """pivot -> row of the reduced row echelon form of the span: 1 at
        its pivot and 0 at every other pivot."""
        out = {}
        for p, row in self.pivots.items():
            tail = dict(row)
            del tail[p]
            out[p] = {p: Fraction(1), **self.reduce(tail)}
        return out


def _sparse_rows(matrix):
    return [{j: Fraction(x) for j, x in enumerate(row) if x}
            for row in matrix]


def nullspace_with_free(matrix, ncols=None):
    """(kernel basis, free column list).

    Basis vector j has value 1 at free column j and 0 at every other free
    column, so the coordinates of any kernel vector in this basis are just
    its values at the free columns.  `ncols` is only read for a matrix
    without rows.
    """
    nc = len(matrix[0]) if matrix else ncols or 0
    el = SparseEliminator()
    for row in _sparse_rows(matrix):
        el.add(row)
    rows = sorted(el.rref().items())
    free = [j for j in range(nc) if j not in el.pivots]
    basis = []
    for f in free:
        v = {f: Fraction(1)}
        for p, row in rows:
            if f in row:
                v[p] = -row[f]
        basis.append(v)
    return basis, free


def solve(matrix, rhs):
    """One solution x of matrix @ x = rhs (0 at every free column), or
    None if inconsistent."""
    nc = len(matrix[0]) if matrix else 0
    el = SparseEliminator()
    for row, b in zip(_sparse_rows(matrix), rhs):
        if b:
            row[nc] = Fraction(b)
        el.add(row)
    if nc in el.pivots:
        return None
    x = [Fraction(0)] * nc
    for p, row in el.rref().items():
        x[p] = row.get(nc, Fraction(0))
    return x


def mat_mul(a, b):
    n, k = len(a), len(b)
    mcols = len(b[0]) if k else 0
    out = [[Fraction(0)] * mcols for _ in range(n)]
    for i in range(n):
        for t in range(k):
            if a[i][t]:
                c = a[i][t]
                row = b[t]
                orow = out[i]
                for j in range(mcols):
                    if row[j]:
                        orow[j] += c * row[j]
    return out


def mat_inv(matrix):
    """Exact inverse; raises ZeroDivisionError on singular input.

    [A | I] reduces to [I | A^-1]; A is singular exactly when some pivot
    falls in the identity block."""
    n = len(matrix)
    el = SparseEliminator()
    for i, row in enumerate(_sparse_rows(matrix)):
        row[n + i] = Fraction(1)
        el.add(row)
    if any(p >= n for p in el.pivots):
        raise ZeroDivisionError("singular matrix")
    rows = el.rref()
    return [[rows[i].get(n + j, Fraction(0)) for j in range(n)]
            for i in range(n)]


def mat_det(matrix):
    """Product of the pivots, times the sign of the order in which the
    rows took their pivot columns."""
    el = SparseEliminator()
    det = Fraction(1)
    order = []
    for row in _sparse_rows(matrix):
        row = el.reduce(row)
        if not row:
            return Fraction(0)
        p = min(row)
        det *= row[p]
        order.append(p)
        el.add(row)
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return -det if inversions % 2 else det


def mat_vec(a, v):
    return [sum((a[i][j] * v[j] for j in range(len(v))), Fraction(0))
            for i in range(len(a))]
