"""Small exact linear algebra kit over the rationals.

Sparse vectors are dicts index -> exact number (int or Fraction) with
zero entries absent.  `quiver._add_into` is the one routine that adds
them; only `SparseEliminator.reduce`, whose loop also pushes each new
entry at a pivot index on its heap, adds inline.  All elimination goes
through one kernel, `SparseEliminator`; where the package needs a
kernel it reads it off tag coordinates in one eliminator
(`findim.syzygy`, `slice_algebras.relations_from_structure`).  The
duality verdict reads most of its ranks off distinct leading indices
(`duality._homology_dims`) and eliminates only the maps those cannot
pin.  Many vectors ranked here have one entry, so a pivot whose row is
a unit vector is kept as its index alone, with no row dict stored and
none walked (the simplest case of the unit-entry cancellation of
algebraic Morse theory).  `add` answers whether the vector enlarged the
span.  The dense helpers (`nullspace_with_free`, `mat_inv`, `mat_det`)
take matrices as lists of rows (entries Fractions or ints), hand their
nonzero entries to it as Fractions and read the answer off its reduced
row echelon form, so their answers are Fractions.  `mat_inv`,
`mat_det`, `mat_mul` and `mat_vec` serve the Cartan and Coxeter
matrices; `nullspace_with_free` serves the dense reference oracles of
the test suite.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush


class SparseEliminator:
    """Incremental row reduction of sparse dict vectors over Q.

    Rows are kept pivot-normalized: the row at pivot p has 1 at p and no
    index below p.  A unit pivot, whose row is the unit vector {p: 1}, is
    kept as `pivots[p] = None` with no row dict; `row(p)` expands it.  It
    comes from a vector that arrives with one entry at an index that is
    no pivot, or that reduces to one entry.  `add(vec)` reduces vec
    against the current span and returns True when vec enlarged it, False
    when vec was already in it.  A row whose pivot entry is already 1 or
    -1 is kept or negated rather than divided, so integer rows stay
    integer.
    """

    def __init__(self):
        # pivot index -> normalized row (dict), or None for {pivot: 1}
        self.pivots = {}

    def row(self, p):
        """The normalized row at pivot p."""
        row = self.pivots[p]
        return {p: 1} if row is None else row

    def reduce(self, vec):
        """vec minus the element of the span that clears every pivot index.

        Subtracting the row at pivot k only touches indices >= k, so taking
        pending pivot indices from a heap in increasing order clears them
        all in one pass; a unit pivot index is deleted, with no row to walk.
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
            row = pivots[k]
            if row is None:
                del vec[k]
                continue
            # _add_into inline: a new entry at a pivot index is pushed on
            # the heap, on the verdict's hottest loop
            for j, x in row.items():
                y = vec.get(j, 0) - c * x
                if y:
                    if j not in vec and j in pivots:
                        heappush(heap, j)
                    vec[j] = y
                else:
                    vec.pop(j, None)
        return vec

    def add(self, vec):
        pivots = self.pivots
        if len(vec) == 1:
            p = next(iter(vec))
            if p not in pivots:
                pivots[p] = None
                return True
            if pivots[p] is None:
                return False
            # a monomial at a longer row still needs reducing
        vec = self.reduce(vec)
        if not vec:
            return False
        p = min(vec)
        c = vec[p]
        if len(vec) == 1:
            pivots[p] = None
        elif c == 1:
            pivots[p] = vec
        elif c == -1:
            pivots[p] = {k: -x for k, x in vec.items()}
        else:
            c = Fraction(c)
            pivots[p] = {k: x / c for k, x in vec.items()}
        return True

    def contains(self, vec):
        return not self.reduce(vec)

    @property
    def rank(self):
        return len(self.pivots)

    def rref(self):
        """pivot -> row of the reduced row echelon form of the span: 1 at
        its pivot and 0 at every other pivot."""
        out = {}
        for p in self.pivots:
            tail = dict(self.row(p))
            del tail[p]
            out[p] = {p: Fraction(1), **self.reduce(tail)}
        return out


def _sparse_rows(matrix):
    return [{j: Fraction(x) for j, x in enumerate(row) if x}
            for row in matrix]


def _shape(matrix):
    """(the sorted row lengths of matrix, its shape as refusals name it)."""
    widths = sorted({len(row) for row in matrix})
    return widths, f"{len(matrix)} rows of length {'/'.join(map(str, widths))}"


def _square(matrix):
    """Refuse a matrix that is not square with a ValueError naming its
    shape: the answers of mat_inv and mat_det would be wrong."""
    widths, shape = _shape(matrix)
    if widths not in ([], [len(matrix)]):
        raise ValueError(f"not a square matrix: {shape}")


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


def mat_mul(a, b):
    """a times b; shapes that do not fit are refused, not truncated."""
    (wa, sa), (wb, sb) = _shape(a), _shape(b)
    if wa not in ([], [len(b)]) or len(wb) > 1:
        raise ValueError(f"cannot multiply {sa} by {sb}")
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
    _square(matrix)
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
    _square(matrix)
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
    """a applied to v; a row of another length than v is refused."""
    widths, shape = _shape(a)
    if widths not in ([], [len(v)]):
        raise ValueError(f"cannot apply {shape} to a vector of length "
                         f"{len(v)}")
    return [sum((a[i][j] * v[j] for j in range(len(v))), Fraction(0))
            for i in range(len(a))]
