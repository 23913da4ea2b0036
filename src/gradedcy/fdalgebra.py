"""Finite dimensional algebras and bimodules by structure constants.

An FDAlgebra is an ordered basis with labels, sparse structure constants
over Q, and a declared complete set of orthogonal idempotents (given as
indices of basis elements).  Elements are sparse dicts index -> exact
number: an int where integral, a Fraction only where a division or a
parsed p/q makes one (`quiver.as_exact`).  Products run one bilinear
loop over the structure table.  A bimodule only stores its two action
tables, which `trivial_extension` copies into the structure table of
A + U.
"""

from __future__ import annotations

from fractions import Fraction

from .quiver import _add_into, as_exact


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
    """A structure table with exact coefficients (ints where integral),
    zero entries and zero vectors dropped; a coefficient may be anything
    Fraction reads, a float or a string included, and is read before it
    is tested for zero ('0' is a zero entry)."""
    out = {}
    for k, v in table.items():
        w = {i: x for i, c in v.items() if (x := as_exact(Fraction(c)))}
        if w:
            out[k] = w
    return out


class FDAlgebra:
    def __init__(self, labels, mult, idempotent_indices, name=""):
        """mult: dict (i, j) -> sparse vec for basis_i * basis_j."""
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.mult = _exact(mult)
        self.idempotents = list(idempotent_indices)
        self.name = name
        self._validate_idempotents()

    # -- basics ---------------------------------------------------------

    def basis_vec(self, i):
        return {i: 1}

    def product(self, u, v):
        return _bilinear(self.mult, u, v)

    def _validate_idempotents(self):
        for i in self.idempotents:
            sq = self.mult.get((i, i), {})
            if sq != {i: 1}:
                raise ValueError(f"declared idempotent {self.labels[i]} "
                                 "is not idempotent")
        for i in self.idempotents:
            for j in self.idempotents:
                if i != j and self.mult.get((i, j)):
                    raise ValueError("declared idempotents not orthogonal")

    def opposite(self):
        mult = {}
        for (i, j), v in self.mult.items():
            mult[(j, i)] = v
        return FDAlgebra(self.labels, mult, self.idempotents,
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


def trivial_extension(A: FDAlgebra, U: FDBimodule, name="") -> FDAlgebra:
    """A + U with U squaring to zero; basis = A-basis then U-basis."""
    n = A.dim
    labels = [f"a:{l}" for l in A.labels] + [f"u:{l}" for l in U.labels]
    mult = {(i, j): dict(v) for (i, j), v in A.mult.items()}
    for (a, u), w in U.left.items():
        mult[a, n + u] = {n + k: c for k, c in w.items()}
    for (u, a), w in U.right.items():
        mult[n + u, a] = {n + k: c for k, c in w.items()}
    return FDAlgebra(labels, mult, list(A.idempotents),
                     name=name or (f"triv_ext({A.name})" if A.name else ""))

