"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the machinery they check: graded
dimensions are recomputed by spanning the whole path space and quotienting
by the ideal slice, and matchings by exhausting edge subsets or by a plain
backtracker.  Minimal resolutions are recomputed with a dense kernel
solve for each syzygy; one-sided generator complexes, slice matrices and
the d o d check by reducing every product from scratch instead of multiplying
through arrow maps, with the sign rules as the package wrote them before
its one entry evaluator, and homology dims by ranking every map with an
eliminator instead of certifying ranks by leading indices; the slice
algebras A and U and the first preprojective layer the same way, with
Path-keyed bases; kQ by a compose table over every pair of paths; the block
algebras A~ and U~ by scanning every (block, A element, U~ element)
triple; relations recovered from structure constants by a dense solve
for each dependent word; the radical's nilpotency by building the whole
power tower J, J^2, ... from products instead of reading traces off the
structure table, and Gabriel quivers with a fresh copy of that J^2
span for each vertex pair, and by two products per vertex pair and
radical basis element; graded bases by one depth-first walk per degree
instead of layer by layer, and listings and arrow maps as lists of Paths
with a (source, arrows) index instead of a trie; eliminator rows by
reducing every vector,
linear programs on a Fraction tableau instead of integer rows, dimer
faces by taking the least unused dart for every face, rotation checks by
scanning every edge for every vertex, and the `dimer matchings` answer
by `json.dumps`.  The other JSON
emitters at the end are kept here for the tests that read them,
`slice_matrix` for the tests that look at whole slice matrices,
`vec_add` for the tests that add sparse vectors, `solve` (a dense
solve through the one eliminator) for the oracles and the linalg tests,
and the axiom checks of algebras, bimodules and modules with the
accessors only they read (`check_associative`, `check_unit`, `slot_of`,
`act_left`, `act_right`, `check_bimodule`, `check_module`) and the
polynomial helpers `scale` and `is_homogeneous`;
the package itself does not use them.  `random_presentation` draws the
seeded random presentations that the rewriting and resolution
differentials share.
"""

from __future__ import annotations

import itertools
import json
from collections import namedtuple
from fractions import Fraction
from pathlib import Path as FsPath

from gradedcy.dimer import DimerEdge, DimerModel
from gradedcy.errors import (NonStabilizing, NotBasic, NotComplex,
                             NotSurjective, PositiveDegree)
from gradedcy.fdalgebra import (FDAlgebra, FDBimodule, _bilinear,
                                trivial_extension)
from gradedcy.findim import radical
from gradedcy.errors import NotSplitBasic
from gradedcy.linalg import (SparseEliminator, _sparse_rows,
                             nullspace_with_free)
from gradedcy.preprojective import (_plain_paths, path_algebra,
                                    preprojective_presentation)
from gradedcy.quiver import (Arrow, GradedQuiverPresentation, NCPoly, Path,
                             PathAlgebraContext, Quiver, _add_into,
                             _offending_term, load_presentation)
from gradedcy.normalwords import RewriteContext
from gradedcy.simplex import LPResult
from gradedcy.slice_algebras import build_B, default_cap

DATA = FsPath(__file__).resolve().parent.parent / "data"


def load(name):
    return load_presentation(DATA / name)


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


def homology_dims_by_elimination(cplx, w, dims, leads, images, out):
    """duality._homology_dims as the package wrote it before it certified
    ranks by leading indices: every map is ranked by one eliminator, and
    `leads` is taken only to keep its signature and not read.
    out[(position k, w)] = dims[k] - rank in - rank out, where images(k)
    gives the images of the differential from term k + 1 to term k."""
    ranks = [0]
    for k in range(len(dims) - 1):
        el = SparseEliminator()
        for vec in images(k):
            el.add(vec)
        ranks.append(el.rank)
    ranks.append(0)
    for k, dim in enumerate(dims):
        out[(cplx.positions[k], w)] = dim - ranks[k + 1] - ranks[k]


def random_presentation(rng):
    """A random homogeneous presentation: one to three vertices, two to
    four arrows of degree -1 or -2, and one or two relations, each a
    combination of two or three parallel paths of length 1..3 and equal
    degree with coefficients in {-2, -1, 1, 2}."""
    nv = rng.randrange(1, 4)
    verts = [str(i) for i in range(nv)]
    arrows = []
    for i in range(rng.randrange(2, 5)):
        arrows.append(Arrow(f"a{i}", rng.choice(verts), rng.choice(verts),
                            -rng.randrange(1, 3)))
    Q = Quiver(verts, arrows)
    probe = GradedQuiverPresentation(Q, [])
    ctx = probe.ctx
    buckets = {}
    for p in all_paths(probe, 4):
        if 1 <= len(p) <= 3:
            key = (p.source, ctx.target(p), ctx.degree(p))
            buckets.setdefault(key, []).append(p)
    cand = [b for b in buckets.values() if len(b) >= 2]
    rng.shuffle(cand)
    rels = []
    for bucket in cand[:rng.randrange(1, 3)]:
        k = rng.randrange(2, min(len(bucket), 3) + 1)
        chosen = rng.sample(bucket, k)
        rels.append(NCPoly({p: rng.choice([-2, -1, 1, 2])
                            for p in chosen}))
    return GradedQuiverPresentation(Q, rels)


def honeycomb_torus(m, n):
    """The m x n honeycomb on the torus: black b(i, j) and white w(i, j),
    edges A(i, j) = b(i, j) w(i, j), B(i, j) = b(i, j) w(i + 1, j) and
    C(i, j) = b(i, j) w(i, j + 1) (indices mod m and n), every rotation in
    the order A, B, C.  It has mn hexagonal faces, and every R-charge of
    the consistency LP is 2/3."""
    colors, edges, rotation = {}, [], {}
    for i in range(m):
        for j in range(n):
            colors[f"b{i}_{j}"], colors[f"w{i}_{j}"] = "black", "white"
            ends = {"A": (i, j), "B": ((i + 1) % m, j), "C": (i, (j + 1) % n)}
            for kind, (k, l) in ends.items():
                edges.append(DimerEdge(f"{kind}{i}_{j}", f"b{i}_{j}",
                                       f"w{k}_{l}"))
            rotation[f"b{i}_{j}"] = [f"A{i}_{j}", f"B{i}_{j}", f"C{i}_{j}"]
            rotation[f"w{i}_{j}"] = [f"A{i}_{j}", f"B{(i - 1) % m}_{j}",
                                     f"C{i}_{(j - 1) % n}"]
    return DimerModel(colors, edges, rotation)


def dimer_text(dimer):
    """`dimer` in the .dimer file format, declarations in model order."""
    lines = ["[vertices]"]
    lines += [f"{v} {c}" for v, c in dimer.colors.items()]
    lines.append("[edges]")
    lines += [f"{e.name} {e.black} {e.white}" for e in dimer.edges]
    lines.append("[rotation]")
    lines += [f"{v}: {' '.join(rot)}" for v, rot in dimer.rotation.items()]
    return "\n".join(lines) + "\n"


def faces_by_min(dimer):
    """DimerModel.faces as it was before the darts were sorted once: each
    face starts from the least dart not yet in a face."""
    darts = []
    for e in dimer.edges:
        darts.append((e.name, e.black, e.white))
        darts.append((e.name, e.white, e.black))
    succ = {}
    for v, rot in dimer.rotation.items():
        n = len(rot)
        for i, e in enumerate(rot):
            succ[(v, e)] = rot[(i + 1) % n]
    unused = set(darts)
    faces = []
    while unused:
        start = min(unused)
        face = []
        d = start
        while True:
            face.append(d)
            unused.discard(d)
            e, frm, to = d
            e2 = succ[(to, e)]
            d = (e2, to, dimer.other(e2, to))
            if d == start:
                break
        faces.append(face)
    return faces


def rotation_error_by_scan(colors, edges, rotation):
    """The message DimerModel raises for the first vertex whose rotation
    does not list its incident edges, found as it was before the
    incidence lists: every edge scanned for every vertex.  None if every
    rotation is right."""
    for v in colors:
        incident = sorted(e.name for e in edges if v in (e.black, e.white))
        listed = sorted(rotation.get(v, []))
        if incident != listed:
            return f"rotation at {v} lists {listed}, incident {incident}"
    return None


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


# basis: the indices of the basis elements spanning J; powers: the
# SparseEliminator spans of J, J^2, ... until 0; loewy_length: the least
# k with J^k = 0
RadicalPowers = namedtuple("RadicalPowers", "basis powers loewy_length")


def radical_powers(alg):
    """findim.radical as the package computed it before it checked
    nilpotency by traces: the same ideal check by dim x |J| look-ups, then
    the power tower J, J^2, ... by products of each new vector of J^k with
    every radical basis element, refused once it outgrows dim + 1 powers."""
    idem = set(alg.idempotents)
    jbasis = [i for i in range(alg.dim) if i not in idem]
    for i in range(alg.dim):
        for j in jbasis:
            for prod in (alg.mult.get((i, j), {}), alg.mult.get((j, i), {})):
                if any(k in idem and c for k, c in prod.items()):
                    raise NotSplitBasic(
                        f"product involving {alg.labels[j]} has a component "
                        "on a declared idempotent; the declared semisimple "
                        "quotient is not split")
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
    return RadicalPowers(jbasis, powers, len(powers) + 1)


def gabriel_quiver_by_pairs(alg):
    """findim.gabriel_quiver as the package computed it before one span
    served every vertex pair: the J^2 span copied into a new eliminator
    for each pair (i, j), and the arrows i -> j counted as the rank that
    e_i J e_j adds to it."""
    rad = radical_powers(alg)
    jset = rad.basis
    j2 = rad.powers[1] if len(rad.powers) > 1 else SparseEliminator()
    if len(set(alg.idempotents)) != len(alg.idempotents):
        raise NotBasic("repeated idempotent in declaration")
    nverts = len(alg.idempotents)
    vertices = [f"v{k}" for k in range(nverts)]
    arrows = []
    for i in range(nverts):
        ei = alg.basis_vec(alg.idempotents[i])
        for j in range(nverts):
            ej = alg.basis_vec(alg.idempotents[j])
            el = SparseEliminator()
            for p in j2.pivots:
                el.add(j2.row(p))
            count = 0
            for b in jset:
                v = alg.product(ei, alg.product(alg.basis_vec(b), ej))
                if v and el.add(v):
                    count += 1
            for m in range(count):
                arrows.append(Arrow(f"a{i}_{j}_{m}", f"v{i}", f"v{j}", 0))
    return Quiver(vertices, arrows)


def gabriel_quiver_by_products(alg):
    """findim.gabriel_quiver as the package computed it before it read
    e_i b off the structure table: e_i (b e_j) by two products for every
    vertex pair (i, j) and radical basis element b, 2 |Q0|^2 |J| in all,
    each added to one span seeded with J^2."""
    rad = radical_powers(alg)
    if len(set(alg.idempotents)) != len(alg.idempotents):
        raise NotBasic("repeated idempotent in declaration")
    span = rad.powers[1] if len(rad.powers) > 1 else SparseEliminator()
    nverts = len(alg.idempotents)
    vertices = [f"v{k}" for k in range(nverts)]
    arrows = []
    for i in range(nverts):
        ei = alg.basis_vec(alg.idempotents[i])
        for j in range(nverts):
            ej = alg.basis_vec(alg.idempotents[j])
            count = 0
            for b in rad.basis:
                v = alg.product(ei, alg.product(alg.basis_vec(b), ej))
                if v and span.add(v):
                    count += 1
            for m in range(count):
                arrows.append(Arrow(f"a{i}_{j}_{m}", f"v{i}", f"v{j}", 0))
    return Quiver(vertices, arrows)


# ---------------------------------------------------------------------------
# dense reference resolution: each syzygy is the kernel of one dense
# dim(M) x dim(P) Fraction matrix, solved by nullspace_with_free, as findim
# did before it read kernels off tag coordinates; modules keep RightModule's
# sparse action rows, so that the reference emits them directly
# ---------------------------------------------------------------------------

def sparse_action(mats):
    """Dense action matrices as RightModule's sparse action rows."""
    return [{i: {j: Fraction(x) for j, x in enumerate(row) if x}
             for i, row in enumerate(m) if any(row)} for m in mats]


def dense_dual_of_regular(alg):
    """Action matrices of D(A), A a left module over itself, over A:
    f_q . b = sum_i mult[(b,i)][q] f_i."""
    mats = []
    for b in range(alg.dim):
        m = [[Fraction(0)] * alg.dim for _ in range(alg.dim)]
        for i in range(alg.dim):
            for q, c in alg.mult.get((b, i), {}).items():
                m[q][i] += Fraction(c)
        mats.append(m)
    return mats


def _dense_act(action, row_vec, b):
    """The dense row vector row_vec . b in a module with sparse action
    rows."""
    rows, out = action[b], [Fraction(0)] * len(row_vec)
    for i, c in enumerate(row_vec):
        if c and i in rows:
            for j, x in rows[i].items():
                out[j] += c * x
    return out


def _dense_syzygy(alg, jbasis, dim, mats):
    """(slots, kernel dim, kernel action rows) of the projective cover of
    the module (dim, action rows mats)."""
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
        m = {}
        for col, v in enumerate(kern):
            w = {}
            for i, c in v.items():
                r, pb = pbasis[i]
                for k2, c2 in alg.mult.get((pb, b), {}).items():
                    key = pindex.get((r, k2))
                    if key is not None:
                        w[key] = w.get(key, 0) + c * c2
            image = {row: w[f] for row, f in enumerate(free) if w.get(f)}
            if image:
                m[col] = image
        kmats.append(m)
    return slots, len(kern), kmats


def dense_resolution(alg, dim, mats, cap, modules=None):
    """(Betti dicts per step, finished_at) of the minimal resolution of the
    module with sparse action rows `mats`, the conventions of
    findim.projective_resolution.  When `modules` is a list, the action
    rows of each nonzero syzygy are appended to it."""
    jbasis = radical(alg)
    steps = []
    for k in range(cap + 1):
        if dim == 0:
            return steps, k - 1
        slots, dim, mats = _dense_syzygy(alg, jbasis, dim, mats)
        if dim and modules is not None:
            modules.append(mats)
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
                flip = (ctx.degree(q) * (ls + lt)) % 2
            for (c, u, v) in entries:
                if not u.is_lazy:
                    continue
                comp = ctx.compose(q, v) if left else ctx.compose(v, q)
                if comp is None:
                    continue
                c2 = -c if flip else c
                nf = rc.rs.reduce(NCPoly.monomial(comp))
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

        homology_dims_by_elimination(cplx, w, [len(b) for b in bases],
                                     None, images, dims)
    return dims


def _side_paths(cplx, rc, wdeg, summand, side):
    basis = rc.basis(wdeg)
    out = []
    for (a, b), plist in sorted(basis.by_pair.items(),
                                key=lambda kv: str(kv[0])):
        for p in plist:
            if cplx.kind in ("graded", "dg-right"):
                # left path ends at left_vertex; right starts at right_vertex
                if side == "left" and b == summand.left_vertex:
                    out.append(p)
                elif side == "right" and a == summand.right_vertex:
                    out.append(p)
            else:  # dg-left: left path starts at lv, right ends at rv
                if side == "left" and a == summand.left_vertex:
                    out.append(p)
                elif side == "right" and b == summand.right_vertex:
                    out.append(p)
    return out


def slice_basis_by_pairs(cplx, rc, k, w):
    """The slice basis as BimoduleComplex.slice_basis listed it before the
    slots: (summand, p, q) with each side's vertex pairs sorted by name."""
    out = []
    for si, s in enumerate(cplx.terms[k]):
        rest = w - s.degree
        if rest > 0:
            continue
        # |p| + |q| = rest, both factors in nonpositive degrees
        for wp in range(0, rest - 1, -1):
            wq = rest - wp
            lefts = _side_paths(cplx, rc, wp, s, "left")
            rights = _side_paths(cplx, rc, wq, s, "right")
            for p in lefts:
                for q in rights:
                    out.append((si, p, q))
    return out


def _product_by_reduction(rc, p, path, left):
    """Normal form of p * path, or of path * p when `left`, reduced from
    scratch, as {Path: coefficient}."""
    ctx = rc.pres.ctx
    comp = ctx.compose(path, p) if left else ctx.compose(p, path)
    if comp is None:
        return {}
    return dict(rc.rs.reduce(NCPoly.monomial(comp)).terms)


def _shift(summand):
    return -summand.degree


def _entry_images(cplx, rc, k, ti, si, p, q):
    """Images (coeff, p', q') of the slice element (si, p, q) of
    terms[k+1] under the (ti, si) component of diffs[k], with p' and q'
    normal forms {Path: coefficient}."""
    ctx = cplx.pres.ctx
    entries = cplx.diffs[k].get((ti, si))
    if not entries:
        return []
    out = []
    kind = cplx.kind
    if kind in ("graded", "dg-right"):
        for (c, u, v) in entries:
            if kind == "dg-right":
                sgn = ((ctx.degree(u) + ctx.degree(v)) * ctx.degree(p)) % 2
                c = c * Fraction((-1) ** sgn)
            out.append((c, _product_by_reduction(rc, p, u, False),
                        _product_by_reduction(rc, q, v, True)))
    else:  # dg-left
        ls = _shift(cplx.terms[k][ti])      # target shift (deeper dual)
        lt = _shift(cplx.terms[k + 1][si])  # source shift
        # stored shifts on dual summands are the negated original degrees,
        # i.e. summand.degree == l_original; _shift gives -l, so recover:
        ls, lt = -ls, -lt
        base = ((ctx.degree(p) + ctx.degree(q)) * (ls + lt)) % 2
        for (c, u, v) in entries:
            sgn = (base + (ctx.degree(p) + ctx.degree(q)) * ctx.degree(u)) % 2
            out.append((c * Fraction((-1) ** sgn),
                        _product_by_reduction(rc, p, u, True),
                        _product_by_reduction(rc, q, v, False)))
    return out


def slice_matrix(cplx, rc, k, w):
    """Matrix of diffs[k] between the internal-degree-w slices, as columns
    over the source slice basis, through the package's entry evaluator.
    Returns (src_basis, tgt_basis, columns) with columns sparse dicts into
    the target index."""
    cols = cplx.images(rc, k, w, cplx.slots(rc, k + 1, w)[0],
                       cplx.slots(rc, k, w)[0])
    return (cplx.slice_basis(rc, k + 1, w), cplx.slice_basis(rc, k, w),
            list(cols))


def slice_matrix_by_reduction(cplx, rc, k, w):
    """duality.slice_matrix as the package built it before its one entry
    evaluator: Path-keyed slice bases sorted by vertex-pair name, the sign
    rules of `_entry_images`, and every product reduced from scratch.
    Returns (src_basis, tgt_basis, columns) like slice_matrix."""
    src = slice_basis_by_pairs(cplx, rc, k + 1, w)
    tgt = slice_basis_by_pairs(cplx, rc, k, w)
    tindex = {e: i for i, e in enumerate(tgt)}
    cols = []
    for (si, p, q) in src:
        col = {}
        for ti in range(len(cplx.terms[k])):
            for (c, lnf, rnf) in _entry_images(cplx, rc, k, ti, si, p, q):
                for pl, cl in lnf.items():
                    for pr, cr in rnf.items():
                        key = (ti, pl, pr)
                        idx = tindex.get(key)
                        if idx is None:
                            continue
                        val = col.get(idx, 0) + c * cl * cr
                        if val:
                            col[idx] = val
                        else:
                            col.pop(idx, None)
        cols.append(col)
    return src, tgt, cols


def check_complex_by_reduction(cplx, rc):
    """BimoduleComplex.check_complex as it was before its one entry
    evaluator: composite entries (u1 u2, v2 v1) reduced by the rewriting
    system, with no Koszul signs whatever the kind."""
    ctx = cplx.pres.ctx
    for k in range(len(cplx.diffs) - 1):
        outer = cplx.diffs[k]       # terms[k+1] -> terms[k]
        inner = cplx.diffs[k + 1]   # terms[k+2] -> terms[k+1]
        nsrc = len(cplx.terms[k + 2])
        ntgt = len(cplx.terms[k])
        for src in range(nsrc):
            for tgt in range(ntgt):
                # composite entries as reduced (left, right) path pairs
                pairs = {}
                for mid in range(len(cplx.terms[k + 1])):
                    e1 = inner.get((mid, src))
                    e2 = outer.get((tgt, mid))
                    if not e1 or not e2:
                        continue
                    for c1, u1, v1 in e1:
                        for c2, u2, v2 in e2:
                            lp = ctx.compose(u1, u2)
                            rp = ctx.compose(v2, v1)
                            if lp is None or rp is None:
                                continue
                            lnf = rc.rs.reduce(NCPoly.monomial(lp))
                            rnf = rc.rs.reduce(NCPoly.monomial(rp))
                            for pl, cl in lnf.terms.items():
                                for pr, cr in rnf.terms.items():
                                    key = (pl, pr)
                                    val = pairs.get(key, 0) \
                                        + c1 * c2 * cl * cr
                                    if val:
                                        pairs[key] = val
                                    else:
                                        pairs.pop(key, None)
                if pairs:
                    raise NotComplex(
                        f"{cplx.name}: d o d nonzero from summand "
                        f"{cplx.terms[k+2][src].label} to "
                        f"{cplx.terms[k][tgt].label}")
    return True


class SliceBasis:
    """Bookkeeping shared by build_A / build_U: normal-form bases of the
    graded pieces of R needed for slot degrees 0..-depth."""

    def __init__(self, pres, depth, cap=None):
        if not pres.is_negatively_graded():
            bad = [a.name for a in pres.quiver.arrows if a.degree > 0]
            raise PositiveDegree(f"arrows of positive degree: {bad}")
        self.pres = pres
        self.cap = cap if cap is not None else default_cap(depth)
        self.rc = RewriteContext(pres, self.cap)
        self.pieces = {}
        for w in range(0, depth + 1):
            self.pieces[-w] = self.rc.basis(-w)

    def paths(self, degree, source=None, target=None):
        basis = self.pieces[degree]
        out = []
        for (s, t), plist in sorted(basis.by_pair.items(),
                                    key=lambda kv: str(kv[0])):
            if source is not None and s != source:
                continue
            if target is not None and t != target:
                continue
            out.extend(plist)
        return out


def _slice_elements(sb: SliceBasis, a, offset):
    """Basis triples (s, t, path) with deg(path) = s - t - offset."""
    out = []
    for s in range(a):
        for t in range(a):
            w = s - t - offset
            if w > 0 or w not in sb.pieces:
                continue
            for p in sb.paths(w):
                out.append((s, t, p))
    return out


def _slice_labels(ctx, elements, sep):
    return [f"({s}{sep}{t}){ctx.format_path(p)}" for s, t, p in elements]


def _product_into_basis(sb, index_of, s, u, p, q):
    """Expand (path p)(path q) in normal form and map to basis indices of
    the (s, u, *) block."""
    ctx = sb.pres.ctx
    comp = ctx.compose(p, q)
    if comp is None:
        return {}
    nf = sb.rc.rs.reduce(NCPoly.monomial(comp))
    out = {}
    for mono, c in nf.terms.items():
        key = (s, u, mono)
        idx = index_of.get(key)
        if idx is None:
            raise NonStabilizing(
                "product left the computed graded basis; raise the cap")
        out = vec_add(out, {idx: Fraction(c)})
    return out


def build_A_by_reduction(pres, a, cap=None) -> FDAlgebra:
    """slice_algebras.build_A as the package built it before its products
    went through the arrow maps: Path-keyed slice bases and every product
    of two basis paths reduced from scratch by the rewriting system."""
    if a < 1:
        raise ValueError("a must be >= 1")
    sb = SliceBasis(pres, a - 1, cap)
    ctx = pres.ctx
    elements = _slice_elements(sb, a, 0)
    labels = _slice_labels(ctx, elements, "->")
    index_of = {e: i for i, e in enumerate(elements)}
    mult = {}
    for i, (s, t, p) in enumerate(elements):
        for j, (s2, u, q) in enumerate(elements):
            if t != s2:
                continue
            v = _product_into_basis(sb, index_of, s, u, p, q)
            if v:
                mult[(i, j)] = v
    idems = [index_of[(s, s, p)] for s in range(a)
             for p in sb.paths(0) if p.is_lazy and (s, s, p) in index_of]
    return FDAlgebra(labels, mult, idems,
                     name=f"A({pres.name or 'R'},a={a})")


def build_U_by_reduction(pres, a, cap=None, A: FDAlgebra = None) \
        -> FDBimodule:
    """slice_algebras.build_U the same way as build_A_by_reduction."""
    if A is None:
        A = build_A_by_reduction(pres, a, cap)
    ctx = pres.ctx
    sb = SliceBasis(pres, a, cap)
    a_elements = _slice_elements(sb, a, 0)
    if _slice_labels(ctx, a_elements, "->") != A.labels:
        raise ValueError(f"A is not the slice algebra of this presentation "
                         f"at a = {a}")
    u_elements = _slice_elements(sb, a, 1)
    labels = _slice_labels(ctx, u_elements, "=>")
    u_index = {e: i for i, e in enumerate(u_elements)}
    left, right = {}, {}
    for i, (s, t, p) in enumerate(a_elements):
        for j, (s2, u, q) in enumerate(u_elements):
            if t != s2:
                continue
            v = _product_into_basis(sb, u_index, s, u, p, q)
            if v:
                left[(i, j)] = v
    for j, (s, t, q) in enumerate(u_elements):
        for i, (s2, u, p) in enumerate(a_elements):
            if t != s2:
                continue
            v = _product_into_basis(sb, u_index, s, u, q, p)
            if v:
                right[(j, i)] = v
    return FDBimodule(A, labels, left, right,
                      name=f"U({pres.name or 'R'},a={a})")


def path_algebra_by_composition(Q) -> FDAlgebra:
    """preprojective.path_algebra as the package built it before kQ was
    read off the listing of the preprojective presentation: the paths of
    Q in frontier order and a compose table over every pair of them."""
    ctx = PathAlgebraContext(Q)
    paths = _plain_paths(Q)
    index = {p: i for i, p in enumerate(paths)}
    mult = {}
    for i, p in enumerate(paths):
        for j, q in enumerate(paths):
            c = ctx.compose(p, q)
            if c is not None:
                mult[(i, j)] = {index[c]: Fraction(1)}
    idems = [index[Path(v, ())] for v in Q.vertices]
    return FDAlgebra([ctx.format_path(p) for p in paths], mult, idems,
                     name="kQ")


def linear_quiver(n):
    """The linear quiver 0 -> 1 -> ... -> n - 1, arrows a0, a1, ..."""
    return Quiver([str(v) for v in range(n)],
                  [Arrow(f"a{v}", str(v), str(v + 1), 0)
                   for v in range(n - 1)])


def ext_bimodule_by_reduction(Q, cap=8) -> FDBimodule:
    """preprojective.ext_bimodule the same way as build_A_by_reduction,
    with kQ's basis looked up by label."""
    A = path_algebra(Q)
    a_index = {label: i for i, label in enumerate(A.labels)}
    pp = preprojective_presentation(Q)
    rc = RewriteContext(pp, cap)
    basis1 = rc.basis(-1)
    ctx = pp.ctx
    u_paths = []
    for (s, t), plist in sorted(basis1.by_pair.items(),
                                key=lambda kv: str(kv[0])):
        u_paths.extend(plist)
    u_index = {p: i for i, p in enumerate(u_paths)}

    # map kQ basis paths into the double quiver
    def embed(p: Path):
        names = [Q.arrows[i].name for i in p.arrows]
        out = Path(p.source, tuple(pp.quiver.arrow_index[n] for n in names))
        return out

    def to_vec(comp):
        if comp is None:
            return {}
        nf = rc.rs.reduce(NCPoly.monomial(comp))
        return {u_index[mono]: c for mono, c in nf.terms.items()}

    left, right = {}, {}
    for ap in _plain_paths(Q):
        ep = embed(ap)
        ai = a_index[ctx.format_path(ep)]
        for ui, up in enumerate(u_paths):
            vec = to_vec(ctx.compose(ep, up))
            if vec:
                left[(ai, ui)] = vec
            vec = to_vec(ctx.compose(up, ep))
            if vec:
                right[(ui, ai)] = vec
    return FDBimodule(A, [ctx.format_path(p) for p in u_paths], left, right,
                      name="ext_bimodule")


def build_tilde_by_scan(A: FDAlgebra, U: FDBimodule, n):
    """slice_algebras.build_tilde as the package built it before it copied
    the structure constants once with index shifts: every (block, A
    element, U~ element) triple scanned through tag tuples.

    n-fold block construction: A~ = n copies of A on the diagonal, U~
    the cyclic bimodule with A blocks above the diagonal and U in the
    lower-left corner, B~ their trivial extension.  n = 1 returns
    (A, U, B) itself (same bases)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return A, U, build_B(A, U)
    labels_a = [f"[{k}]{l}" for k in range(n) for l in A.labels]

    def ai(k, i):
        return k * A.dim + i

    mult = {}
    for k in range(n):
        for (i, j), v in A.mult.items():
            mult[(ai(k, i), ai(k, j))] = {ai(k, t): c for t, c in v.items()}
    idems = [ai(k, e) for k in range(n) for e in A.idempotents]
    At = FDAlgebra(labels_a, mult, idems,
                   name=f"tilde_A({A.name or 'A'},n={n})")

    # U~ basis: blocks (k+1 -> k) carrying A's basis for k < n-1, and a
    # block (0 -> n-1) carrying U's basis (matching the construction for
    # the grading multiplied by n).
    u_labels = []
    block_elems = []  # ('A', k, i) or ('U', u)
    for k in range(n - 1):
        for i, l in enumerate(A.labels):
            u_labels.append(f"[{k+1}>{k}]{l}")
            block_elems.append(("A", k, i))
    for u, l in enumerate(U.labels):
        u_labels.append(f"[0>{n-1}]{l}")
        block_elems.append(("U", u))
    u_index = {e: i for i, e in enumerate(block_elems)}

    left, right = {}, {}
    for k in range(n):
        for i in range(A.dim):
            for j, elem in enumerate(block_elems):
                if elem[0] == "A":
                    _, kb, ib = elem
                    if kb + 1 == k:
                        v = A.mult.get((i, ib))
                        if v:
                            left[(ai(k, i), j)] = {
                                u_index[("A", kb, t)]: c
                                for t, c in v.items()}
                    if kb == k:
                        v = A.mult.get((ib, i))
                        if v:
                            right[(j, ai(k, i))] = {
                                u_index[("A", kb, t)]: c
                                for t, c in v.items()}
                else:
                    _, ub = elem
                    if k == 0:
                        v = U.left.get((i, ub))
                        if v:
                            left[(ai(k, i), j)] = {
                                u_index[("U", t)]: c for t, c in v.items()}
                    if k == n - 1:
                        v = U.right.get((ub, i))
                        if v:
                            right[(j, ai(k, i))] = {
                                u_index[("U", t)]: c for t, c in v.items()}
    Ut = FDBimodule(At, u_labels, left, right,
                    name=f"tilde_U({U.name or 'U'},n={n})")
    Bt = trivial_extension(At, Ut, name=f"tilde_B(n={n})")
    return At, Ut, Bt


def mat_from_columns(cols, nrows):
    m = [[Fraction(0)] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            m[i][j] = Fraction(x)
    return m




def relations_from_structure_by_solving(alg: FDAlgebra, guess: Quiver,
                                        arrow_images, cap,
                                        vertex_idempotents=None):
    """slice_algebras.relations_from_structure as the package wrote it
    before it read dependences off tag coordinates: a dense solve for each
    dependent word, and a second eliminator for the span.

    Minimal homogeneous generators of the kernel of kQ -> alg up to
    path length `cap`.

    arrow_images: arrow name -> element (sparse vec) of alg; the images
    must generate the radical over the idempotents.  vertex_idempotents
    maps quiver vertices to positions in alg.idempotents (defaults to
    declaration order).
    """
    ctx = GradedQuiverPresentation(guess, []).ctx
    if vertex_idempotents is None:
        if len(guess.vertices) != len(alg.idempotents):
            raise ValueError("vertex count differs from idempotent count; "
                             "pass vertex_idempotents")
        vertex_idempotents = {v: k for k, v in enumerate(guess.vertices)}
    idem_vec = {v: alg.basis_vec(alg.idempotents[k])
                for v, k in vertex_idempotents.items()}

    # sanity: image of arrow a sits between its endpoint idempotents
    for name, vec in arrow_images.items():
        a = guess.arrow(name)
        between = alg.product(idem_vec[a.source],
                              alg.product(vec, idem_vec[a.target]))
        if between != {k: Fraction(c) for k, c in vec.items()}:
            raise ValueError(
                f"image of {name} is not concentrated between e_{a.source} "
                f"and e_{a.target}")

    found = []           # NCPoly relations
    lead_words = []      # their leading words, used to prune enumeration

    def reducible(arrows):
        for lhs in lead_words:
            L = len(lhs)
            for pos in range(len(arrows) - L + 1):
                if arrows[pos:pos + L] == lhs:
                    return True
        return False

    elim = SparseEliminator()
    basis_paths = []     # paths whose images are independent so far
    img_cache = {}

    def image(path: Path):
        got = img_cache.get(path)
        if got is not None:
            return got
        if path.is_lazy:
            vec = idem_vec[path.source]
        else:
            prefix = Path(path.source, path.arrows[:-1])
            last = guess.arrows[path.arrows[-1]].name
            vec = alg.product(image(prefix), arrow_images[last])
        img_cache[path] = vec
        return vec

    frontier = [Path(v, ()) for v in guess.vertices]
    for p in frontier:
        elim.add(image(p))
        basis_paths.append(p)

    for length in range(1, cap + 1):
        new_frontier = []
        for p in frontier:
            tgt = ctx.target(p)
            for i in guess.arrows_by_source[tgt]:
                q = Path(p.source, p.arrows + (i,))
                if reducible(q.arrows):
                    continue
                vec = image(q)
                red = elim.reduce(vec)
                if red:
                    # independent: q is a new normal word
                    elim.add(vec)
                    basis_paths.append(q)
                    new_frontier.append(q)
                else:
                    # dependent: solve for the combination over basis words
                    rel = _dependence_relation(alg, ctx, q, vec, basis_paths,
                                               image)
                    found.append(rel)
                    lead_words.append(q.arrows)
        frontier = new_frontier
        if not frontier:
            break

    span = SparseEliminator()
    for p in basis_paths:
        span.add(image(p))
    if span.rank != alg.dim:
        raise NotSurjective(
            f"arrow images span {span.rank} of {alg.dim} dimensions "
            f"within length {cap}")
    return found


def _dependence_relation(alg, ctx, q, vec, basis_paths, image):
    cols = [image(p) for p in basis_paths]
    m = mat_from_columns(cols, alg.dim)
    rhs = [Fraction(0)] * alg.dim
    for i, c in vec.items():
        rhs[i] = Fraction(c)
    x = solve(m, rhs)
    assert x is not None
    terms = {q: Fraction(1)}
    for j, c in enumerate(x):
        if c:
            terms[basis_paths[j]] = terms.get(basis_paths[j], 0) - c
    return NCPoly(terms)


def _fraction_pivot(T, basis, row, col):
    """Pivot in place, touching each row only at the pivot row's nonzero
    columns."""
    prow = T[row]
    piv = prow[col]
    support = [j for j, v in enumerate(prow) if v]
    for j in support:
        prow[j] /= piv
    for r, trow in enumerate(T):
        f = trow[col]
        if r != row and f:
            for j in support:
                trow[j] -= f * prow[j]
    basis[row] = col


def _fraction_simplex_phase(T, basis, ncols):
    """Maximize; objective row is T[-1] with reduced costs negated in the
    usual tableau convention (row = c_B B^-1 A - c)."""
    m = len(T) - 1
    while True:
        col = next((j for j in range(ncols) if T[-1][j] < 0), None)
        if col is None:
            return "optimal"
        best = None
        for r in range(m):
            if T[r][col] > 0:
                ratio = T[r][-1] / T[r][col]
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[r] < basis[best[1]]):
                    best = (ratio, r)
        if best is None:
            return "unbounded"
        _fraction_pivot(T, basis, best[1], col)


def solve_lp_by_fractions(A, b, c):
    """The simplex as the package ran it over a Fraction tableau, before
    its rows became ints over one denominator: same pivots (Bland's rule),
    and the optimal dual solved from the final basis.  Maximize c.x st
    A x = b, x >= 0."""
    m = len(A)
    n = len(A[0]) if m else len(c)
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]

    # phase 1: artificials
    total = n + m
    T = []
    for i in range(m):
        T.append(A[i] + [Fraction(int(j == i)) for j in range(m)] + [b[i]])
    obj = [Fraction(0)] * total + [Fraction(0)]
    for i in range(m):
        obj = [o - a for o, a in zip(obj, T[i])]
    for j in range(n, total):
        obj[j] = Fraction(0)
    T.append(obj)
    basis = [n + i for i in range(m)]
    _fraction_simplex_phase(T, basis, total)
    if -T[-1][-1] > 0:
        # infeasible: Farkas certificate y with y.A >= 0 and y.b < 0
        # (then 0 <= y.A.x = y.b < 0 is absurd for any feasible x >= 0),
        # read off the phase-1 duals at the artificial columns.
        y = [T[-1][n + i] - 1 for i in range(m)]
        ya = [sum(y[i] * A[i][j] for i in range(m)) for j in range(n)]
        yb = sum(y[i] * b[i] for i in range(m))
        if not (all(v >= 0 for v in ya) and yb < 0):
            y = [-v for v in y]
            ya = [-v for v in ya]
            yb = -yb
        assert all(v >= 0 for v in ya) and yb < 0, "bad Farkas certificate"
        return LPResult("infeasible", None, None, None, y)

    # drive artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if T[r][j]), None)
            if col is not None:
                _fraction_pivot(T, basis, r, col)

    # phase 2 (pivot columns restricted to the originals, so artificials
    # cannot re-enter)
    T[-1] = [Fraction(0)] * (total + 1)
    for j in range(n):
        T[-1][j] = -c[j]
    for r in range(m):
        bj = basis[r]
        if bj < n and c[bj]:
            f = c[bj]
            T[-1] = [o + f * v for o, v in zip(T[-1], T[r])]
    status = _fraction_simplex_phase(T, basis, n)
    if status == "unbounded":
        return LPResult("unbounded", None, None, None, None)
    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = T[r][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    # dual vector from the final basis: solve y . A_B = c_B exactly
    # (an artificial in the basis at level zero contributes cost zero)
    cols = basis
    mat = [[A[i][j] if j < n else Fraction(int(i == j - n))
            for j in cols] for i in range(m)]
    cb = [c[j] if j < n else Fraction(0) for j in cols]
    mat_t = [[mat[i][r] for i in range(m)] for r in range(m)]
    y = solve(mat_t, cb)
    assert y is not None, "degenerate final basis"
    return LPResult("optimal", x, value, y, None)


def basis_by_walk(rc, degree):
    """The graded basis as RewriteContext.basis built it before the layered
    listings, as pair -> words and pair -> the automaton state of each
    word: one depth-first walk (normal_paths) per vertex and degree, then
    each pair's words sorted by the monomial order and the pairs by
    str(pair)."""
    ctx, found = rc.pres.ctx, {}
    for v in rc.pres.quiver.vertices:
        states = []
        paths = rc.rs.normal_paths(v, rc.cap, degree=degree, states=states)
        for p, state in zip(paths, states):
            found.setdefault((v, ctx.target(p)), []).append((p, state))
    for words in found.values():
        words.sort(key=lambda ps: ctx.key(ps[0]))
    found = dict(sorted(found.items(), key=lambda kv: str(kv[0])))
    return ({pair: [p for p, _ in words] for pair, words in found.items()},
            {pair: [st for _, st in words] for pair, words in found.items()})


class PathListings:
    """The listings and arrow maps of a RewriteContext as they were built
    before the trie: each (degree, length) layer as Paths with their
    automaton states, w * x for w one arrow shorter, sorted by the monomial
    order when there are several vertices or arrow degrees; each degree's
    pairs ordered by str(pair); a (source, arrows) -> position
    index; and arrow maps filled by index look-ups, None for a miss (a lazy
    word times an arrow on the left is looked up too)."""

    def __init__(self, rc):
        self.rc, self.layers, self.listings, self.out = rc, {}, {}, {}
        for x, a in enumerate(rc.pres.quiver.arrows):
            self.out.setdefault(a.degree, {}).setdefault(a.source, []) \
                .append(x)

    def layer(self, degree, length):
        if (degree, length) in self.layers:
            return self.layers[degree, length]
        rc, got = self.rc, {}
        arrows = rc.pres.quiver.arrows
        if length == 0 and degree == 0:
            got = {(v, v): ([Path(v, ())], [()])
                   for v in rc.pres.quiver.vertices}
        for e, out in self.out.items() if length else ():
            for (s, t), (words, states) in \
                    self.layer(degree - e, length - 1).items():
                for w, st in zip(words, states):
                    for x in out.get(t, ()):
                        nxt = rc.rs._step(st, x)
                        if nxt is not None:
                            ws, ss = got.setdefault((s, arrows[x].target),
                                                    ([], []))
                            ws.append(Path(s, w.arrows + (x,)))
                            ss.append(nxt)
        for pair, (ws, ss) in list(got.items()):
            if len(self.out) > 1 or len(rc.pres.quiver.vertices) > 1:
                order = sorted(range(len(ws)),
                               key=lambda i: rc.pres.ctx.key(ws[i]))
                got[pair] = [ws[i] for i in order], [ss[i] for i in order]
        self.layers[degree, length] = got
        return got

    def listing(self, degree):
        """(words, index, states) of the degree."""
        if degree not in self.listings:
            found = {}
            for length in range(self.rc.cap + 1):
                for pair, part in self.layer(degree, length).items():
                    found.setdefault(pair, []).append(part)
            pairs = sorted(found, key=str)
            words = [w for pair in pairs for ws, _ in found[pair] for w in ws]
            self.listings[degree] = (
                words, {(p.source, p.arrows): i for i, p in enumerate(words)},
                [st for pair in pairs for _, ss in found[pair] for st in ss])
        return self.listings[degree]

    def arrow_map(self, degree, x, left=False):
        words, arrow = self.listing(degree)[0], self.rc.pres.quiver.arrows[x]
        get = self.listing(degree + arrow.degree)[1].get
        if left:
            return [get((arrow.source, (x,) + q.arrows))
                    if arrow.target == q.source else None for q in words]
        return [get((q.source, q.arrows + (x,))) for q in words]


class ReducingEliminator(SparseEliminator):
    """SparseEliminator with `add` as it was before the monomial fast
    path: every vector goes through `reduce`."""

    def add(self, vec):
        vec = self.reduce(vec)
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


def unit_pivot_mutant_add():
    """SparseEliminator.add with one planted slip: a one-entry vector at a
    pivot whose row is longer counts as already in the span, unreduced."""
    import inspect
    import textwrap
    from gradedcy import linalg

    old = "        if pivots[p] is None:\n            return False\n"
    source = textwrap.dedent(inspect.getsource(SparseEliminator.add))
    assert source.count(old) == 1
    namespace = dict(vars(linalg))
    exec(source.replace(old, "        return False\n"), namespace)
    return namespace["add"]


def matchings_json(matchings, truncated=False):
    import json
    return json.dumps({"count": len(matchings),
                       "truncated": truncated,
                       "matchings": [list(m) for m in matchings]},
                      indent=2, sort_keys=True)


def structure_json(alg):
    """Structure constants of an FDAlgebra as JSON."""
    data = {
        "dim": alg.dim,
        "labels": alg.labels,
        "idempotents": [alg.labels[i] for i in alg.idempotents],
        "products": {
            f"{alg.labels[i]}|{alg.labels[j]}": {
                alg.labels[k]: str(c) for k, c in sorted(v.items())
            }
            for (i, j), v in sorted(alg.mult.items())
        },
    }
    return json.dumps(data, indent=2, sort_keys=True)


def check_associative(alg):
    """Exhaustive associativity check of an FDAlgebra on basis triples;
    returns True or raises ValueError naming the first bad triple."""
    for i in range(alg.dim):
        for j in range(alg.dim):
            ij = alg.mult.get((i, j), {})
            for k in range(alg.dim):
                if _bilinear(alg.mult, ij, {k: 1}) != _bilinear(
                        alg.mult, {i: 1}, alg.mult.get((j, k), {})):
                    raise ValueError(
                        f"associativity fails on "
                        f"({alg.labels[i]},{alg.labels[j]},"
                        f"{alg.labels[k]})")
    return True


def check_unit(alg):
    """The sum of the declared idempotents is a two-sided unit of the
    FDAlgebra; returns True or raises ValueError naming a basis element."""
    one = {i: Fraction(1) for i in alg.idempotents}
    for i in range(alg.dim):
        b = alg.basis_vec(i)
        if alg.product(one, b) != b or alg.product(b, one) != b:
            raise ValueError(f"unit fails on {alg.labels[i]}")
    return True


def slot_of(alg, i, side):
    """Index of the idempotent e of the FDAlgebra with e*b = b
    (side='left') or b*e = b (side='right') for basis element b = i;
    None if b is not in a single slot."""
    b = alg.basis_vec(i)
    for k, e in enumerate(alg.idempotents):
        ev = alg.basis_vec(e)
        p = alg.product(ev, b) if side == "left" else alg.product(b, ev)
        if p == b:
            return k
    return None


def act_left(U, avec, uvec):
    """a.u for sparse vectors over an FDBimodule's algebra and over U."""
    return _bilinear(U.left, avec, uvec)


def act_right(U, uvec, avec):
    """u.a for sparse vectors over U and over its algebra."""
    return _bilinear(U.right, uvec, avec)


def check_bimodule(U):
    """The actions of an FDBimodule commute: (a.u).b == a.(u.b) on all
    basis triples; returns True or raises ValueError naming the triple."""
    A = U.algebra
    for a in range(A.dim):
        av = A.basis_vec(a)
        for u in range(U.dim):
            uv = {u: Fraction(1)}
            au = act_left(U, av, uv)
            for b in range(A.dim):
                bv = A.basis_vec(b)
                lhs = act_right(U, au, bv)
                rhs = act_left(U, av, act_right(U, uv, bv))
                if lhs != rhs:
                    raise ValueError(
                        f"bimodule axiom fails on ({A.labels[a]},"
                        f"{U.labels[u]},{A.labels[b]})")
    return True


def check_module(M):
    """(m.i).j == m.(ij) for a RightModule on all basis triples; returns
    True or raises ValueError."""
    for i in range(M.alg.dim):
        for j in range(M.alg.dim):
            prod = M.alg.mult.get((i, j), {})
            for r in range(M.dim):
                rhs = {}
                for k, c in prod.items():
                    _add_into(rhs, M.action[k].get(r, {}).items(), c)
                lhs = M.act(M.act({r: Fraction(1)}, i), j)
                if lhs != rhs:
                    raise ValueError("module axiom fails")
    return True


def scale(poly, c):
    """The NCPoly c * poly."""
    c = Fraction(c)
    return NCPoly({p: c * x for p, x in poly.terms.items()})


def is_homogeneous(poly, ctx):
    """Terms of the NCPoly parallel (same source and target) and of equal
    degree, by the package's one homogeneity rule."""
    return _offending_term(poly, ctx) is None


def direct_sum_decomposition_by_idempotents(alg):
    """(slot_left, slot_right) per basis element; raises NotSplitBasic when
    some basis element is not concentrated in a single slot pair."""
    out = []
    for i in range(alg.dim):
        sl = slot_of(alg, i, "left")
        sr = slot_of(alg, i, "right")
        if sl is None or sr is None:
            raise NotSplitBasic(
                f"basis element {alg.labels[i]} not concentrated between a "
                "single pair of declared idempotents")
        out.append((sl, sr))
    return out


def betti_table_json(resolution):
    return json.dumps({
        "finished_at": resolution.finished_at,
        "steps": [{"total": s.total_rank,
                   "by_slot": {str(k): v for k, v in sorted(s.betti.items())}}
                  for s in resolution.steps],
    }, indent=2, sort_keys=True)


def ig_report_json(report):
    return json.dumps({"holds": report.holds, "d": report.d,
                       "inj_dim_left": report.inj_dim_left,
                       "inj_dim_right": report.inj_dim_right},
                      indent=2, sort_keys=True)
