"""Homological toolkit for finite dimensional algebras.

Works over the declared complete set of orthogonal idempotents and the
split-basic hypothesis: the semisimple quotient is a product of copies of
the ground field.  The radical is the span of the non-idempotent part of
the basis, verified to be a nilpotent ideal (NotSplitBasic otherwise);
this matches computing the kernel of the projection onto the declared
semisimple quotient.

Modules are right modules given by sparse action rows.  A resolution
step walks only the structure table's nonzero products, grouped by left
factor.  Right-sided injective dimensions go through the opposite algebra.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import Inconclusive, NotBasic, NotSplitBasic
from .fdalgebra import FDAlgebra
from .linalg import SparseEliminator
from .quiver import Arrow, Quiver, _add_into


# ---------------------------------------------------------------------------
# radical
# ---------------------------------------------------------------------------

def radical(alg: FDAlgebra):
    """The indices of the basis elements spanning the radical J: the
    non-idempotent part of the basis, checked in one pass over the
    structure table to be a nilpotent two-sided ideal (NotSplitBasic
    otherwise).

    Ideal: no product involving an element of J has a component on a
    declared idempotent.  Nilpotent: tr(L_b) = sum_i mult[(b, i)][i] is 0
    for every b in J, where L_b is left multiplication by b.  For x in J
    every power x^k lies in J, so tr(L_x^k) = tr(L_{x^k}) = 0 for all
    k >= 1; over Q this makes L_x nilpotent, so x^(m+1) = L_x^m(x) = 0
    with m = dim A, and a nil ideal of a finite dimensional algebra is
    nilpotent.  Conversely L_b is nilpotent when J is, so its trace is 0.
    """
    idem = set(alg.idempotents)
    jbasis = [i for i in range(alg.dim) if i not in idem]
    trace = dict.fromkeys(jbasis, 0)
    for (b, i), prod in alg.mult.items():
        if b in idem and i in idem:
            continue
        if not idem.isdisjoint(prod):
            j = i if b in idem else b
            raise NotSplitBasic(
                f"product involving {alg.labels[j]} has a component "
                "on a declared idempotent; the declared semisimple "
                "quotient is not split")
        if b not in idem:
            trace[b] += prod.get(i, 0)
    for b in jbasis:
        if trace[b]:
            raise NotSplitBasic(
                f"candidate radical is not nilpotent: left multiplication "
                f"by {alg.labels[b]} has trace {trace[b]}")
    return jbasis


# ---------------------------------------------------------------------------
# Gabriel quiver
# ---------------------------------------------------------------------------

def gabriel_quiver(alg: FDAlgebra) -> Quiver:
    """Vertices = declared idempotents; dim e_i (J/J^2) e_j arrows i -> j."""
    jbasis = radical(alg)

    # split-basic + k^n quotient means no isomorphic repeats can hide;
    # still, guard against a degenerate declaration.
    if len(set(alg.idempotents)) != len(alg.idempotents):
        raise NotBasic("repeated idempotent in declaration")

    # J is the direct sum of the e_i J e_j and J^2 splits the same way, so
    # the rank each pair adds to one span seeded with J^2 is
    # dim e_i J e_j / e_i J^2 e_j; J^2 is spanned by the table rows j k
    # with j, k in J, and e_i b is a row of the table too
    jset = set(jbasis)
    span = SparseEliminator()
    for (j, k), row in alg.mult.items():
        if j in jset and k in jset:
            span.add(row)
    nverts = len(alg.idempotents)
    vertices = [f"v{k}" for k in range(nverts)]
    arrows = []
    for i, ei in enumerate(alg.idempotents):
        rows = [alg.mult[ei, b] for b in jbasis if (ei, b) in alg.mult]
        for j, ej in enumerate(alg.idempotents):
            count = 0
            for row in rows:
                v = alg.product(row, alg.basis_vec(ej))
                if v and span.add(v):
                    count += 1
            for m in range(count):
                arrows.append(Arrow(f"a{i}_{j}_{m}", f"v{i}", f"v{j}", 0))
    return Quiver(vertices, arrows)


# ---------------------------------------------------------------------------
# right modules
# ---------------------------------------------------------------------------

class RightModule:
    """Right module over an FDAlgebra by sparse action rows: action[b]
    maps a module basis index i to the sparse vector e_i . b, and zero
    rows are absent."""

    def __init__(self, alg: FDAlgebra, dim, action):
        self.alg = alg
        self.dim = dim
        self.action = action  # per algebra basis element: {i: sparse row}

    @classmethod
    def dual_of_regular(cls, alg: FDAlgebra):
        """D(A), for A as a left module over itself, carried as a right
        module over alg.

        The right A-action (f.b)(x) = f(b x) on the dual reads, on dual
        basis vectors, f_q . b = sum_i mult[(b,i)][q] f_i.
        """
        action = [{} for _ in range(alg.dim)]
        for (b, i), prod in alg.mult.items():
            for q, c in prod.items():
                action[b].setdefault(q, {})[i] = c
        return cls(alg, alg.dim, action)

    def act(self, vec, b):
        """The sparse module vector vec times basis element b."""
        rows = self.action[b]
        out = {}
        for i, c in vec.items():
            _add_into(out, rows.get(i, {}).items(), c)
        return out


# betti: idempotent slot -> multiplicity
ResolutionStep = namedtuple("ResolutionStep", "betti total_rank")
# finished_at: the index k with zero syzygy, or -1 if the cap was reached
Resolution = namedtuple("Resolution", "steps finished_at")


def projective_cover_data(M: RightModule, jbasis):
    """Top of M split by idempotent slots, with chosen lifts.

    `jbasis` indexes the basis elements spanning the radical J of M.alg.
    Returns (slots, lifts): parallel lists where lifts[r] is a sparse
    module vector generating the cover summand e_{slots[r]} A.
    """
    # M J = span of e_r . j, the rows of the radical's actions
    covered = SparseEliminator()
    for j in jbasis:
        for w in M.action[j].values():
            covered.add(w)
    # choose top representatives per idempotent slot, in ascending r
    slots, lifts = [], []
    for k, e in enumerate(M.alg.idempotents):
        for r, me in sorted(M.action[e].items()):
            if covered.add(me):
                slots.append(k)
                lifts.append(me)
    return slots, lifts


def syzygy(M: RightModule, jbasis):
    """Kernel of the projective cover P -> M as a right module; `jbasis`
    as in projective_cover_data."""
    alg = M.alg
    slots, lifts = projective_cover_data(M, jbasis)
    # the nonzero products of the table by left factor, b ascending in each
    rows = {}
    for (a, b), prod in sorted(alg.mult.items()):
        rows.setdefault(a, []).append((b, prod))
    # basis of P: pairs (r, b) with b in e_{slots[r]} . A  (b = e b)
    pbasis = [(r, b) for r, k in enumerate(slots) for b, prod in
              rows.get(alg.idempotents[k], ()) if prod == {b: 1}]
    # each element i of P gets a tag coordinate M.dim + i next to its
    # image; an element whose image reduces to 0 leaves its kernel vector
    # in the tags, with 1 at its own (free) column and 0 at every other
    # free one, since the rows only carry tags of independent columns
    span, kern, coord = SparseEliminator(), [], {}
    for i, (r, b) in enumerate(pbasis):
        v = span.reduce({**M.act(lifts[r], b), M.dim + i: 1})
        if min(v) < M.dim:
            span.add(v)
        else:
            coord[r, b] = len(kern)
            kern.append({j - M.dim: c for j, c in v.items()})
    if not kern:
        return slots, None
    # The kernel basis is echelon over its free columns, so coordinates of
    # an action image are its values at the free columns.
    action = [{} for _ in range(alg.dim)]
    for col, v in enumerate(kern):
        ws = {}
        for i, c in v.items():
            r, pb = pbasis[i]
            for b, prod in rows.get(pb, ()):
                _add_into(ws.setdefault(b, {}),
                          ((coord[r, k2], c2) for k2, c2 in prod.items()
                           if (r, k2) in coord), c)
        for b, w in ws.items():
            if w:
                action[b][col] = w
    return slots, RightModule(alg, len(kern), action)


def projective_resolution(M: RightModule, cap) -> Resolution:
    """Minimal resolution to length `cap`; Betti numbers per step."""
    jbasis = radical(M.alg)
    steps = []
    cur = M
    for k in range(cap + 1):
        if cur.dim == 0:
            return Resolution(steps, finished_at=k - 1)
        slots, nxt = syzygy(cur, jbasis)
        betti = {}
        for s in slots:
            betti[s] = betti.get(s, 0) + 1
        steps.append(ResolutionStep(betti, len(slots)))
        if nxt is None:
            return Resolution(steps, finished_at=k)
        cur = nxt
    return Resolution(steps, finished_at=-1)


def injective_dimension(alg: FDAlgebra, side, cap):
    """Injective dimension of the regular module on the given side.

    inj.dim of A as a right module equals proj.dim of D(A) over A^op as a
    right module (linear dual with side swap); 'left' dualizes the other
    way.  Returns an int, or None when the bound `cap` was exceeded.
    """
    if side == "right":
        dual = RightModule.dual_of_regular(alg.opposite())
    elif side == "left":
        dual = RightModule.dual_of_regular(alg)
    else:
        raise ValueError("side must be 'left' or 'right'")
    res = projective_resolution(dual, cap)
    return None if res.finished_at < 0 else res.finished_at


IGReport = namedtuple("IGReport", "holds inj_dim_left inj_dim_right d")


def is_iwanaga_gorenstein(alg: FDAlgebra, d, cap) -> IGReport:
    """Both-sided injective dimension of the regular module <= d."""
    right = injective_dimension(alg, "right", cap)
    if right is not None and right > d:
        return IGReport(False, None, right, d)
    left = injective_dimension(alg, "left", cap)
    if right is None or left is None:
        raise Inconclusive(
            f"injective dimension exceeded the resolution cap {cap} "
            f"(left={left}, right={right})")
    return IGReport(left <= d and right <= d, left, right, d)

