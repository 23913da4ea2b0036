"""Finite dimensional algebras and bimodules by structure constants.

An FDAlgebra is an ordered basis with labels, sparse structure constants
over Q, and a declared complete set of orthogonal idempotents (given as
indices of basis elements).  Elements are sparse dicts index -> Fraction.
Products and both bimodule actions run one bilinear loop over their
structure table.
"""

from __future__ import annotations

from fractions import Fraction

from .quiver import _add_into


def _bilinear(table, u, v):
    """The sum of u_i v_j table[(i, j)] over sparse vectors u and v, for a
    structure table (i, j) -> sparse vector."""
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            w = table.get((i, j))
            if w:
                _add_into(out, w.items(), a * b)
    return out


def _exact(table):
    """A structure table with Fraction coefficients, zero entries and
    zero vectors dropped."""
    return {k: {i: Fraction(c) for i, c in v.items() if c}
            for k, v in table.items() if v}


class FDAlgebra:
    def __init__(self, labels, mult, idempotent_indices, grading=None,
                 name=""):
        """mult: dict (i, j) -> sparse vec for basis_i * basis_j."""
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.mult = _exact(mult)
        self.idempotents = list(idempotent_indices)
        self.grading = grading
        self.name = name
        self._validate_idempotents()

    # -- basics ---------------------------------------------------------

    def unit(self):
        return {i: Fraction(1) for i in self.idempotents}

    def basis_vec(self, i):
        return {i: Fraction(1)}

    def product(self, u, v):
        return _bilinear(self.mult, u, v)

    def _validate_idempotents(self):
        for i in self.idempotents:
            sq = self.mult.get((i, i), {})
            if sq != {i: Fraction(1)}:
                raise ValueError(f"declared idempotent {self.labels[i]} "
                                 "is not idempotent")
        for i in self.idempotents:
            for j in self.idempotents:
                if i != j and self.mult.get((i, j)):
                    raise ValueError("declared idempotents not orthogonal")

    def check_associative(self):
        """Exhaustive associativity check on basis triples; returns True or
        raises ValueError naming the first bad triple."""
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.mult.get((i, j), {})
                for k in range(self.dim):
                    if _bilinear(self.mult, ij, {k: 1}) != _bilinear(
                            self.mult, {i: 1}, self.mult.get((j, k), {})):
                        raise ValueError(
                            f"associativity fails on "
                            f"({self.labels[i]},{self.labels[j]},"
                            f"{self.labels[k]})")
        return True

    def check_unit(self):
        one = self.unit()
        for i in range(self.dim):
            b = self.basis_vec(i)
            if self.product(one, b) != b or self.product(b, one) != b:
                raise ValueError(f"unit fails on {self.labels[i]}")
        return True

    # -- idempotent slots -------------------------------------------------

    def slot_of(self, i, side):
        """Index of the idempotent with e*b = b (side='left') or
        b*e = b (side='right'); None if b is not in a single slot."""
        b = self.basis_vec(i)
        for k, e in enumerate(self.idempotents):
            ev = self.basis_vec(e)
            p = self.product(ev, b) if side == "left" else self.product(b, ev)
            if p == b:
                return k
        return None

    def opposite(self):
        mult = {}
        for (i, j), v in self.mult.items():
            mult[(j, i)] = v
        return FDAlgebra(self.labels, mult, self.idempotents,
                         grading=self.grading,
                         name=self.name + "^op" if self.name else "")

    # -- emitters ---------------------------------------------------------

    def __repr__(self):
        return f"FDAlgebra({self.name or 'unnamed'}, dim={self.dim})"


class FDBimodule:
    """(A, A)-bimodule with basis and sparse action constants."""

    def __init__(self, algebra: FDAlgebra, labels, left, right, name=""):
        """left: dict (a_idx, u_idx) -> sparse vec; right: (u_idx, a_idx)."""
        self.algebra = algebra
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.left = _exact(left)
        self.right = _exact(right)
        self.name = name

    def act_left(self, avec, uvec):
        return _bilinear(self.left, avec, uvec)

    def act_right(self, uvec, avec):
        return _bilinear(self.right, uvec, avec)

    def check_bimodule(self):
        """Actions commute: (a.u).b == a.(u.b) on all basis triples."""
        A = self.algebra
        for a in range(A.dim):
            av = A.basis_vec(a)
            for u in range(self.dim):
                uv = {u: Fraction(1)}
                au = self.act_left(av, uv)
                for b in range(A.dim):
                    bv = A.basis_vec(b)
                    lhs = self.act_right(au, bv)
                    rhs = self.act_left(av, self.act_right(uv, bv))
                    if lhs != rhs:
                        raise ValueError(
                            f"bimodule axiom fails on ({A.labels[a]},"
                            f"{self.labels[u]},{A.labels[b]})")
        return True


def trivial_extension(A: FDAlgebra, U: FDBimodule, name="") -> FDAlgebra:
    """A + U with U squaring to zero; basis = A-basis then U-basis."""
    n = A.dim
    labels = [f"a:{l}" for l in A.labels] + [f"u:{l}" for l in U.labels]
    mult = {}
    for (i, j), v in A.mult.items():
        mult[(i, j)] = dict(v)
    for a in range(A.dim):
        for u in range(U.dim):
            w = U.left.get((a, u))
            if w:
                mult[(a, n + u)] = {n + k: c for k, c in w.items()}
            w = U.right.get((u, a))
            if w:
                mult[(n + u, a)] = {n + k: c for k, c in w.items()}
    grading = None
    if A.grading is not None:
        grading = list(A.grading) + [None] * U.dim
    return FDAlgebra(labels, mult, list(A.idempotents), grading=grading,
                     name=name or (f"triv_ext({A.name})" if A.name else ""))

