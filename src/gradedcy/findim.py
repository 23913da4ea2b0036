"""Homological toolkit for finite dimensional algebras.

Works over the declared complete set of orthogonal idempotents and the
split-basic hypothesis: the semisimple quotient is a product of copies of
the ground field.  The radical is the span of the non-idempotent part of
the basis, verified to be a nilpotent ideal (NotSplitBasic otherwise);
this matches computing the kernel of the projection onto the declared
semisimple quotient.

Modules are right modules given by their action matrices; left-sided
questions go through the opposite algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import Inconclusive, NotBasic, NotSplitBasic
from .fdalgebra import FDAlgebra
from .linalg import SparseEliminator, nullspace_with_free, vec_add
from .quiver import Arrow, Quiver


# ---------------------------------------------------------------------------
# radical
# ---------------------------------------------------------------------------

@dataclass
class RadicalData:
    basis: list          # indices of basis elements spanning J
    powers: list         # list of SparseEliminator spans: J, J^2, ... until 0
    loewy_length: int    # least k with J^k = 0


def radical(alg: FDAlgebra) -> RadicalData:
    idem = set(alg.idempotents)
    jbasis = [i for i in range(alg.dim) if i not in idem]

    # the complement of the idempotent span must be a two-sided ideal
    for i in range(alg.dim):
        for j in jbasis:
            for prod in (alg.mult.get((i, j), {}), alg.mult.get((j, i), {})):
                if any(k in idem and c for k, c in prod.items()):
                    raise NotSplitBasic(
                        f"product involving {alg.labels[j]} has a component "
                        "on a declared idempotent; the declared semisimple "
                        "quotient is not split")

    # each e.A.e must be k.e plus nilpotents (guaranteed by the above since
    # everything off the idempotent span is in the candidate ideal)
    powers = []
    current = [{j: Fraction(1)} for j in jbasis]
    span = SparseEliminator()
    for v in current:
        span.add(v)
    if span.rank:
        powers.append(span)
    gen_vectors = list(current)
    while current:
        nxt = []
        nspan = SparseEliminator()
        for v in current:
            for g in gen_vectors:
                p = alg.product(v, g)
                if p and nspan.add(p):
                    nxt.append(p)
        if not nxt:
            break
        powers.append(nspan)
        current = nxt
        if len(powers) > alg.dim + 1:
            raise NotSplitBasic("candidate radical is not nilpotent")
    # least k with J^k = 0
    return RadicalData(jbasis, powers, len(powers) + 1)


# ---------------------------------------------------------------------------
# Gabriel quiver
# ---------------------------------------------------------------------------

def gabriel_quiver(alg: FDAlgebra, basicify=False) -> Quiver:
    """Vertices = declared idempotents; dim e_i (J/J^2) e_j arrows i -> j."""
    rad = radical(alg)
    jset = rad.basis
    j2 = rad.powers[1] if len(rad.powers) > 1 else SparseEliminator()

    if not basicify:
        # split-basic + k^n quotient means no isomorphic repeats can hide;
        # still, guard against a degenerate declaration.
        seen = set()
        for k, e in enumerate(alg.idempotents):
            if e in seen:
                raise NotBasic("repeated idempotent in declaration")
            seen.add(e)

    nverts = len(alg.idempotents)
    vertices = [f"v{k}" for k in range(nverts)]
    arrows = []
    for i in range(nverts):
        ei = alg.basis_vec(alg.idempotents[i])
        for j in range(nverts):
            ej = alg.basis_vec(alg.idempotents[j])
            # e_i J e_j modulo J^2
            el = SparseEliminator()
            for r in j2.pivots.values():
                el.add(r)
            count = 0
            for b in jset:
                v = alg.product(ei, alg.product(alg.basis_vec(b), ej))
                if v and el.add(v):
                    count += 1
            for m in range(count):
                arrows.append(Arrow(f"a{i}_{j}_{m}", f"v{i}", f"v{j}", 0))
    return Quiver(vertices, arrows)


def arrow_multiplicities(quiver: Quiver):
    out = {}
    for a in quiver.arrows:
        key = (a.source, a.target)
        out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# right modules
# ---------------------------------------------------------------------------

class RightModule:
    """Right module over an FDAlgebra: action[i] is the matrix of the i-th
    basis element acting on column vectors (rows = module basis)."""

    def __init__(self, alg: FDAlgebra, dim, action, name=""):
        self.alg = alg
        self.dim = dim
        self.action = action  # list of dim x dim row-major Fraction matrices
        self.name = name

    @classmethod
    def regular(cls, alg: FDAlgebra):
        mats = []
        for b in range(alg.dim):
            m = [[Fraction(0)] * alg.dim for _ in range(alg.dim)]
            for i in range(alg.dim):
                prod = alg.mult.get((i, b), {})
                for k, c in prod.items():
                    m[i][k] = Fraction(c)
            mats.append(m)
        return cls(alg, alg.dim, mats, name="regular")

    @classmethod
    def dual_of_regular(cls, alg: FDAlgebra):
        """D(A), for A as a right module over itself, carried as a right
        module over alg.opposite().

        The left A-action (a.f)(x) = f(x a) on the dual becomes a right
        A^op-action; on dual basis vectors f_q . b = sum_i mult[(i,b)][q] f_i.
        """
        op = alg.opposite()
        mats = []
        for b in range(alg.dim):
            m = [[Fraction(0)] * alg.dim for _ in range(alg.dim)]
            for i in range(alg.dim):
                prod = alg.mult.get((i, b), {})
                for q, c in prod.items():
                    m[q][i] += Fraction(c)
            mats.append(m)
        return cls(op, alg.dim, mats, name="D(regular)"), op

    def act(self, row_vec, b):
        """row vector times action matrix of basis element b."""
        m = self.action[b]
        out = [Fraction(0)] * self.dim
        for i, c in enumerate(row_vec):
            if c:
                for j in range(self.dim):
                    if m[i][j]:
                        out[j] += c * m[i][j]
        return out

    def check_module(self):
        for i in range(self.alg.dim):
            for j in range(self.alg.dim):
                prod = self.alg.mult.get((i, j), {})
                for r in range(self.dim):
                    row = [Fraction(int(t == r)) for t in range(self.dim)]
                    lhs = self.act(self.act(row, i), j)
                    rhs = [Fraction(0)] * self.dim
                    for k, c in prod.items():
                        step = self.act(row, k)
                        rhs = [x + c * y for x, y in zip(rhs, step)]
                    if lhs != rhs:
                        raise ValueError("module axiom fails")
        return True


@dataclass
class ResolutionStep:
    betti: dict        # idempotent slot -> multiplicity
    total_rank: int


@dataclass
class Resolution:
    steps: list
    finished_at: int   # index k with zero syzygy, or -1 if cap reached


def projective_cover_data(M: RightModule):
    """Top of M split by idempotent slots, with chosen lifts.

    Returns (slots, lifts): parallel lists where lifts[r] is a module row
    vector generating the cover summand e_{slots[r]} A.
    """
    alg = M.alg
    rad = radical(alg)
    # M J = span of m . j
    mj = SparseEliminator()
    for r in range(M.dim):
        row = [Fraction(int(t == r)) for t in range(M.dim)]
        for j in rad.basis:
            w = M.act(row, j)
            sw = {i: c for i, c in enumerate(w) if c}
            if sw:
                mj.add(sw)
    # choose top representatives per idempotent slot
    slots, lifts = [], []
    covered = SparseEliminator()
    for r in mj.pivots.values():
        covered.add(dict(r))
    for k, e in enumerate(alg.idempotents):
        for r in range(M.dim):
            row = [Fraction(int(t == r)) for t in range(M.dim)]
            me = M.act(row, e)
            sv = {i: c for i, c in enumerate(me) if c}
            if sv and covered.add(sv):
                slots.append(k)
                lifts.append(me)
    return slots, lifts


def syzygy(M: RightModule):
    """Kernel of the projective cover P -> M as a right module."""
    alg = M.alg
    slots, lifts = projective_cover_data(M)
    # basis of P: pairs (r, b) with b in e_{slots[r]} . A  (b = e b)
    pbasis = []
    for r, k in enumerate(slots):
        e = alg.idempotents[k]
        for b in range(alg.dim):
            if alg.mult.get((e, b), {}) == {b: Fraction(1)}:
                pbasis.append((r, b))
    # cover map on P-basis
    cover_rows = []
    for (r, b) in pbasis:
        cover_rows.append(M.act(lifts[r], b))
    # kernel of the linear map P -> M (rows of the matrix are images)
    mat = [[cover_rows[i][j] for i in range(len(pbasis))]
           for j in range(M.dim)]
    if pbasis:
        kern, free = nullspace_with_free(mat, ncols=len(pbasis))
    else:
        kern, free = [], []
    kdim = len(kern)
    if kdim == 0:
        return slots, None
    # action of alg on P in the pbasis coordinates
    pindex = {pb: i for i, pb in enumerate(pbasis)}

    def p_act(vec, b):
        out = {}
        for i, c in vec.items():
            (r, pb) = pbasis[i]
            prod = alg.mult.get((pb, b), {})
            for k2, c2 in prod.items():
                key = pindex.get((r, k2))
                if key is not None:
                    out = vec_add(out, {key: c * c2})
        return out

    # The kernel basis is echelon over its free columns, so coordinates of
    # an action image are its values at the free columns.
    action = []
    for b in range(alg.dim):
        m = [[Fraction(0)] * kdim for _ in range(kdim)]
        for col, v in enumerate(kern):
            w = p_act(v, b)
            for row, f in enumerate(free):
                c = w.get(f)
                if c:
                    m[col][row] = c
        action.append(m)
    return slots, RightModule(alg, kdim, action, name=M.name + ".syz")


def projective_resolution(M: RightModule, cap) -> Resolution:
    """Minimal resolution to length `cap`; Betti numbers per step."""
    steps = []
    cur = M
    for k in range(cap + 1):
        if cur.dim == 0:
            return Resolution(steps, finished_at=k - 1)
        slots, nxt = syzygy(cur)
        betti = {}
        for s in slots:
            betti[s] = betti.get(s, 0) + 1
        steps.append(ResolutionStep(betti, len(slots)))
        if nxt is None:
            return Resolution(steps, finished_at=k)
        cur = nxt
    return Resolution(steps, finished_at=-1)


def projective_dimension(M: RightModule, cap):
    res = projective_resolution(M, cap)
    if res.finished_at < 0:
        return None
    return res.finished_at


def injective_dimension(alg: FDAlgebra, side, cap):
    """Injective dimension of the regular module on the given side.

    inj.dim of A as a right module equals proj.dim of D(A) over A^op as a
    right module (linear dual with side swap); 'left' dualizes the other
    way.  Returns an int, or None when the bound `cap` was exceeded.
    """
    if side == "right":
        dual, _ = RightModule.dual_of_regular(alg)
    elif side == "left":
        dual, _ = RightModule.dual_of_regular(alg.opposite())
    else:
        raise ValueError("side must be 'left' or 'right'")
    return projective_dimension(dual, cap)


@dataclass
class IGReport:
    holds: bool
    inj_dim_left: object
    inj_dim_right: object
    d: int


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


def betti_table_json(resolution: Resolution):
    import json

    return json.dumps({
        "finished_at": resolution.finished_at,
        "steps": [{"total": s.total_rank,
                   "by_slot": {str(k): v for k, v in sorted(s.betti.items())}}
                  for s in resolution.steps],
    }, indent=2, sort_keys=True)


def ig_report_json(report: IGReport):
    import json

    return json.dumps({"holds": report.holds, "d": report.d,
                       "inj_dim_left": report.inj_dim_left,
                       "inj_dim_right": report.inj_dim_right},
                      indent=2, sort_keys=True)
