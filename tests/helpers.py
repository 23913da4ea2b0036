"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the machinery they check: graded
dimensions are recomputed by spanning the whole path space and quotienting
by the ideal slice, and matchings by exhausting edge subsets or by a plain
backtracker.  Minimal resolutions are recomputed with dense action
matrices, and one-sided generator complexes by reducing every product from
scratch instead of multiplying through arrow maps.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from pathlib import Path as FsPath

from gradedcy.duality import _deg, _homology_dims
from gradedcy.findim import radical
from gradedcy.linalg import SparseEliminator, nullspace_with_free
from gradedcy.quiver import NCPoly, Path, load_presentation

DATA = FsPath(__file__).resolve().parent.parent / "data"


def load(name):
    return load_presentation(DATA / name)


def all_paths(pres, max_len):
    """Every path of length <= max_len, no reduction."""
    ctx = pres.ctx
    out = []
    frontier = [Path(v, ()) for v in pres.quiver.vertices]
    for _ in range(max_len + 1):
        out.extend(frontier)
        nxt = []
        for p in frontier:
            t = ctx.target(p)
            for i in pres.quiver.arrows_by_source[t]:
                nxt.append(Path(p.source, p.arrows + (i,)))
        frontier = nxt
    return out


def brute_force_graded_dimension(pres, degree, cap, source=None, target=None):
    """Span all paths of the degree within the cap and quotient by the
    ideal slice generated within the cap."""
    ctx = pres.ctx
    paths = [p for p in all_paths(pres, cap) if ctx.degree(p) == degree
             and (source is None or p.source == source)
             and (target is None or ctx.target(p) == target)]
    index = {p: i for i, p in enumerate(paths)}
    el = SparseEliminator()
    for rel in pres.relations:
        rel_len = max(len(p) for p in rel.terms)
        rel_deg = ctx.degree(next(iter(rel.terms)))
        some = next(iter(rel.terms))
        rsrc, rtgt = some.source, ctx.target(some)
        for left in all_paths(pres, cap - rel_len):
            if ctx.target(left) != rsrc:
                continue
            for right in all_paths(pres, cap - rel_len - len(left)):
                if right.source != rtgt:
                    continue
                if ctx.degree(left) + rel_deg + ctx.degree(right) != degree:
                    continue
                vec = {}
                for mono, c in rel.terms.items():
                    full = Path(left.source,
                                left.arrows + mono.arrows + right.arrows)
                    idx = index.get(full)
                    if idx is None:
                        continue
                    vec[idx] = vec.get(idx, 0) + c
                if vec:
                    el.add(vec)
    return len(paths) - el.rank


def matchings_by_subsets(dimer):
    """All perfect matchings by exhausting edge subsets."""
    verts = sorted(dimer.colors)
    n = len(verts)
    out = []
    names = [e.name for e in dimer.edges]
    for r in range(n // 2, n // 2 + 1):
        for subset in itertools.combinations(names, r):
            covered = []
            ok = True
            for e in subset:
                b, w = dimer.ends(e)
                covered.extend((b, w))
            if len(set(covered)) == len(covered) == n:
                out.append(tuple(sorted(subset)))
            del ok
    return sorted(out)


def matchings_by_backtracking(dimer, limit=10 ** 6):
    """All perfect matchings by backtracking over white vertices.

    The search `perfect_matchings` ran before its dead-state cache, kept
    as the order oracle: it stops at the `limit`-th matching found, with
    whites in sorted order and each white's edges in rotation order.
    Returns (matchings, truncated); `truncated` is set when the limit is
    hit, even if no further matching exists.
    """
    whites = sorted(v for v, c in dimer.colors.items() if c == "white")
    blacks = sorted(v for v, c in dimer.colors.items() if c == "black")
    if len(whites) != len(blacks):
        return [], False
    out = []
    used_black = set()
    chosen = []
    truncated = False

    def backtrack(i):
        nonlocal truncated
        if truncated:
            return
        if i == len(whites):
            out.append(tuple(sorted(chosen)))
            if len(out) >= limit:
                truncated = True
            return
        w = whites[i]
        for e in dimer.rotation[w]:
            b = dimer.other(e, w)
            if b not in used_black:
                used_black.add(b)
                chosen.append(e)
                backtrack(i + 1)
                chosen.pop()
                used_black.discard(b)

    backtrack(0)
    return sorted(out), truncated


def dimension_table_of_algebra(alg):
    """(idempotent slot pair) -> dim e_i A e_j for an FDAlgebra."""
    table = {}
    for i, ei in enumerate(alg.idempotents):
        for j, ej in enumerate(alg.idempotents):
            count = 0
            for b in range(alg.dim):
                v = alg.product(alg.basis_vec(ei),
                                alg.product(alg.basis_vec(b),
                                            alg.basis_vec(ej)))
                if v == {b: v.get(b)} and v.get(b) == 1:
                    count += 1
            table[(i, j)] = count
    return table


# ---------------------------------------------------------------------------
# dense reference resolution: modules as one dim x dim Fraction matrix per
# algebra basis element (row vector times matrix), the format findim used
# before its sparse action rows
# ---------------------------------------------------------------------------

def sparse_action(mats):
    """Dense action matrices as RightModule's sparse action rows."""
    return [{i: {j: Fraction(x) for j, x in enumerate(row) if x}
             for i, row in enumerate(m) if any(row)} for m in mats]


def dense_dual_of_regular(alg):
    """Action matrices of D(A) over A^op:
    f_q . b = sum_i mult[(i,b)][q] f_i."""
    mats = []
    for b in range(alg.dim):
        m = [[Fraction(0)] * alg.dim for _ in range(alg.dim)]
        for i in range(alg.dim):
            for q, c in alg.mult.get((i, b), {}).items():
                m[q][i] += Fraction(c)
        mats.append(m)
    return mats


def _dense_act(mats, row_vec, b):
    m = mats[b]
    out = [Fraction(0)] * len(row_vec)
    for i, c in enumerate(row_vec):
        if c:
            for j, x in enumerate(m[i]):
                if x:
                    out[j] += c * x
    return out


def _dense_syzygy(alg, jbasis, dim, mats):
    """(slots, kernel dim, kernel action matrices) of the projective cover
    of the module (dim, mats)."""
    def unit(r):
        row = [0] * dim
        row[r] = 1
        return row

    covered = SparseEliminator()
    for r in range(dim):
        for j in jbasis:
            w = _dense_act(mats, unit(r), j)
            if any(w):
                covered.add({i: c for i, c in enumerate(w) if c})
    slots, lifts = [], []
    for k, e in enumerate(alg.idempotents):
        for r in range(dim):
            me = _dense_act(mats, unit(r), e)
            if any(me) and covered.add(
                    {i: c for i, c in enumerate(me) if c}):
                slots.append(k)
                lifts.append(me)
    pbasis = [(r, b) for r, k in enumerate(slots) for b in range(alg.dim)
              if alg.mult.get((alg.idempotents[k], b), {}) == {b: 1}]
    images = [_dense_act(mats, lifts[r], b) for r, b in pbasis]
    mat = [[images[i][j] for i in range(len(pbasis))] for j in range(dim)]
    kern, free = nullspace_with_free(mat, ncols=len(pbasis)) if pbasis \
        else ([], [])
    pindex = {pb: i for i, pb in enumerate(pbasis)}
    kmats = []
    for b in range(alg.dim):
        m = [[Fraction(0)] * len(kern) for _ in kern]
        for col, v in enumerate(kern):
            w = {}
            for i, c in v.items():
                r, pb = pbasis[i]
                for k2, c2 in alg.mult.get((pb, b), {}).items():
                    key = pindex.get((r, k2))
                    if key is not None:
                        w[key] = w.get(key, 0) + c * c2
            for row, f in enumerate(free):
                if w.get(f):
                    m[col][row] = w[f]
        kmats.append(m)
    return slots, len(kern), kmats


def dense_resolution(alg, dim, mats, cap):
    """(Betti dicts per step, finished_at) of the minimal resolution of the
    module with action matrices `mats`, the conventions of
    findim.projective_resolution."""
    jbasis = radical(alg).basis
    steps = []
    for k in range(cap + 1):
        if dim == 0:
            return steps, k - 1
        slots, dim, mats = _dense_syzygy(alg, jbasis, dim, mats)
        betti = {}
        for s in slots:
            betti[s] = betti.get(s, 0) + 1
        steps.append(betti)
        if dim == 0:
            return steps, k
    return steps, -1


def one_sided_complex_by_reduction(cplx, rc, degrees):
    """The one-sided generator complex as the package built it before it
    multiplied through arrow maps: every product q.v or v.q is reduced
    from scratch by the rewriting system.

    Kill the left tensor factor: generators (term k, summand, right
    path); the induced differential keeps only entry terms whose left path
    is lazy.  Returns homology dims per (position, generator degree).

    Generator degree of (summand s, q) is |q| + shift-offset so that it
    matches the internal degree of the corresponding slice elements.
    The complex of free graded one-sided modules splits as a minimal part
    plus trivial pairs, so these homology dims are exactly the generator
    multiplicities of the minimal part; nonzero entries away from the
    expected spot falsify the duality claim.
    """
    ctx = cplx.pres.ctx
    nterms = len(cplx.terms)

    def gens(k, w):
        out = []
        for si, s in enumerate(cplx.terms[k]):
            qdeg = w - s.degree
            if qdeg > 0:
                continue
            basis = rc.basis(qdeg)
            for (a, b), plist in sorted(basis.by_pair.items(),
                                        key=lambda kv: str(kv[0])):
                for q in plist:
                    if cplx.kind in ("graded", "dg-right"):
                        if a == s.right_vertex:
                            out.append((si, q))
                    else:
                        if b == s.right_vertex:
                            out.append((si, q))
        return out

    def one_sided_image(k, si, q):
        """Image of generator (si in terms[k+1], q) in terms[k] generators."""
        left = cplx.kind == "dg-left"
        out = {}
        for ti in range(len(cplx.terms[k])):
            entries = cplx.diffs[k].get((ti, si))
            if not entries:
                continue
            flip = False
            if left:
                lt = cplx.terms[k + 1][si].degree   # = l of source summand
                ls = cplx.terms[k][ti].degree
                flip = (_deg(ctx, q) * (ls + lt)) % 2
            for (c, u, v) in entries:
                if not u.is_lazy:
                    continue
                comp = ctx.compose(q, v) if left else ctx.compose(v, q)
                if comp is None:
                    continue
                c2 = -c if flip else c
                nf = rc.normal_form(NCPoly.monomial(comp))
                for mono, cm in nf.terms.items():
                    key = (ti, mono)
                    val = out.get(key, 0) + c2 * cm
                    if val:
                        out[key] = val
                    else:
                        out.pop(key, None)
        return out

    dims = {}
    for w in degrees:
        bases = [gens(k, w) for k in range(nterms)]
        indexes = [{g: i for i, g in enumerate(b)} for b in bases]

        def images(k):
            for (si, q) in bases[k + 1]:
                img = one_sided_image(k, si, q)
                vec = {indexes[k][key]: c for key, c in img.items()
                       if key in indexes[k]}
                if vec:
                    yield vec

        _homology_dims(cplx, w, [len(b) for b in bases], images, dims)
    return dims
