"""Preprojective algebras of acyclic quivers and the layered block algebras
built from them.

The double quiver adds a reversed arrow a* for each arrow a; the mesh
relation at a vertex v is  sum_{a: v->} a a*  -  sum_{a: ->v} a* a  in
left-to-right composition.  The internal grading is minus the star degree
(plain arrows 0, starred arrows -1), so the presentation is negatively
graded and the degree -k piece is the k-th preprojective layer.
"""

from __future__ import annotations

from .errors import Cyclic
from .fdalgebra import FDAlgebra, FDBimodule
from .quiver import Arrow, GradedQuiverPresentation, NCPoly, Path, \
    PathAlgebraContext, Quiver
from .slice_algebras import _products, _slice_context, _slice_elements, \
    build_tilde


STAR_SUFFIX = "_s"


def star_name(name):
    return name + STAR_SUFFIX


def double_quiver(Q: Quiver) -> Quiver:
    arrows = [Arrow(a.name, a.source, a.target, 0) for a in Q.arrows]
    arrows += [Arrow(star_name(a.name), a.target, a.source, -1)
               for a in Q.arrows]
    return Quiver(Q.vertices, arrows)


def preprojective_presentation(Q: Quiver) -> GradedQuiverPresentation:
    """Double quiver with the vertex-local mesh relations."""
    if not Q.is_acyclic():
        raise Cyclic("preprojective construction needs an acyclic quiver")
    dq = double_quiver(Q)
    ctx = PathAlgebraContext(dq)
    relations = []
    for v in Q.vertices:
        poly = NCPoly()
        for a in Q.arrows:
            if a.source == v:
                p = ctx.path_from_names([a.name, star_name(a.name)])
                poly = poly + NCPoly.monomial(p, 1)
            if a.target == v:
                p = ctx.path_from_names([star_name(a.name), a.name])
                poly = poly + NCPoly.monomial(p, -1)
        if poly:
            relations.append(poly)
    return GradedQuiverPresentation(dq, relations,
                                    name=f"preprojective({len(Q.vertices)}v)")


def _layer_context(Q: Quiver):
    """RewriteContext of the preprojective presentation, degrees 0 and -1
    checked for stability, at a cap that Q sets: a degree-0 word is a path
    of Q, of at most |Q0| - 1 arrows as Q is acyclic, and a degree -1 word
    is p a* q with p and q such paths, so 2 |Q0| - 1 arrows list every
    word that kQ, the first layer or their products pass through."""
    if not Q.is_acyclic():
        raise Cyclic("path algebra is infinite dimensional for cyclic Q")
    return _slice_context(preprojective_presentation(Q), 1,
                          2 * len(Q.vertices) - 1)


def _path_algebra(rc, Q: Quiver):
    """kQ and its elements off the degree-0 listing of the context (pairs
    sorted by str(pair)), e_v in the order of Q.vertices."""
    elements, base = _slice_elements(rc, 1, 0)
    starts = rc.listing(0).starts
    return FDAlgebra([rc.pres.ctx.format_path(rc.word(0, i))
                      for _, _, _, i in elements],
                     _products(rc, elements, elements, base),
                     [starts[v, v] for v in Q.vertices], name="kQ"), elements


def path_algebra(Q: Quiver) -> FDAlgebra:
    """kQ as an FDAlgebra (finite dimensional since Q is acyclic)."""
    return _path_algebra(_layer_context(Q), Q)[0]


def ext_bimodule(Q: Quiver) -> FDBimodule:
    """The first preprojective layer as a bimodule over kQ: the normal
    words of star degree 1, pairs sorted by str(pair), read off one context
    with kQ (see _layer_context for its cap); both actions multiply through
    its arrow maps (slice_algebras' _products)."""
    rc = _layer_context(Q)
    A, a_elements = _path_algebra(rc, Q)
    u_elements, u_base = _slice_elements(rc, 1, 1)
    return FDBimodule(A, [rc.pres.ctx.format_path(rc.word(-1, i))
                          for _, _, _, i in u_elements],
                      _products(rc, a_elements, u_elements, u_base),
                      _products(rc, u_elements, a_elements, u_base),
                      name="ext_bimodule")


def block_trivial_extension(Q: Quiver, n):
    """The n x n block algebra: n copies of kQ on the diagonal, the cyclic
    bimodule carrying kQ between consecutive blocks and the first
    preprojective layer wrapping around, trivially extended."""
    U = ext_bimodule(Q)
    return build_tilde(U.algebra, U, n)[2]


def block_arrow_images(Q: Quiver, n, B: FDAlgebra):
    """Images in `B` of the layered-quiver arrows, for reconstruction.

    Returns (quiver, images dict, vertex_idempotents) where quiver is
    `layered_presentation(Q, n).quiver` and images maps its arrow names to
    elements of B = block_trivial_extension(Q, n).
    """
    pres = layered_presentation(Q, n)
    lq = pres.quiver
    label_pos = {l: i for i, l in enumerate(B.labels)}

    def bvec(label):
        return {label_pos[label]: 1}

    images = {}
    for a in Q.arrows:
        for l in range(1, n + 1):
            # arrow copy in layer l lives in the diagonal kQ block l-1
            if n == 1:
                images[f"{a.name}^{l}"] = bvec(f"a:{a.name}")
            else:
                images[f"{a.name}^{l}"] = bvec(f"a:[{l-1}]{a.name}")
    for v in Q.vertices:
        for l in range(1, n):
            # v_i^l: (i, l+1) -> (i, l): idempotent in the block (l -> l-1)
            images[f"v_{v}^{l}"] = bvec(f"u:[{l}>{l-1}]e_{v}")
    for a in Q.arrows:
        nm = star_name(a.name)
        if n == 1:
            images[f"{a.name}*"] = bvec(f"u:{nm}")
        else:
            images[f"{a.name}*"] = bvec(f"u:[0>{n-1}]{nm}")
    vertex_idem = {}
    for k, v in enumerate(Q.vertices):
        for l in range(1, n + 1):
            vertex_idem[f"({v},{l})"] = (l - 1) * len(Q.vertices) + k \
                if n > 1 else k
    return lq, images, vertex_idem


def layered_presentation(Q: Quiver, n) -> GradedQuiverPresentation:
    """Presentation of the n-layer block algebra by quiver and relations.

    Vertices (i, l) for i in Q0 and layers l = 1..n.  Arrows: layer copies
    a^l of each arrow, downward arrows v_i^l: (i, l+1) -> (i, l), and
    wrapping arrows a*: (t(a), 1) -> (s(a), n).  Relations: v-commutation
    with the layer copies, the mesh relation tying the wrap arrows to the
    layers, and the square-zero family (for n = 1 the square-zero family
    consists of all composable words  c* w a*  with w a plain path,
    including the lazy one).
    """
    if not Q.is_acyclic():
        raise Cyclic("layered presentation needs an acyclic quiver")
    verts = [f"({v},{l})" for l in range(1, n + 1) for v in Q.vertices]
    arrows = []
    for a in Q.arrows:
        for l in range(1, n + 1):
            arrows.append(Arrow(f"{a.name}^{l}", f"({a.source},{l})",
                                f"({a.target},{l})", 0))
    for v in Q.vertices:
        for l in range(1, n):
            arrows.append(Arrow(f"v_{v}^{l}", f"({v},{l+1})", f"({v},{l})",
                                -1))
    for a in Q.arrows:
        arrows.append(Arrow(f"{a.name}*", f"({a.target},1)",
                            f"({a.source},{n})", -1))
    lq = Quiver(verts, arrows)
    ctx = PathAlgebraContext(lq)
    rels = []
    # (i) layer copies commute with the downward arrows:
    #     first v then the lower copy = first the upper copy then v
    for a in Q.arrows:
        for l in range(1, n):
            lhs = ctx.path_from_names([f"v_{a.source}^{l}", f"{a.name}^{l}"])
            rhs = ctx.path_from_names([f"{a.name}^{l+1}",
                                       f"v_{a.target}^{l}"])
            rels.append(NCPoly({lhs: 1, rhs: -1}))
    # (ii) mesh relations through the wrap arrows
    for i in Q.vertices:
        poly = NCPoly()
        for a in Q.arrows:
            if a.source == i:
                p = ctx.path_from_names([f"{a.name}^1", f"{a.name}*"])
                poly = poly + NCPoly.monomial(p, 1)
            if a.target == i:
                p = ctx.path_from_names([f"{a.name}*", f"{a.name}^{n}"])
                poly = poly + NCPoly.monomial(p, -1)
        if poly:
            rels.append(poly)
    # (iii) square-zero family
    if n >= 2:
        for v in Q.vertices:
            for l in range(2, n):
                rels.append(NCPoly.monomial(
                    ctx.path_from_names([f"v_{v}^{l}", f"v_{v}^{l-1}"]), 1))
        for a in Q.arrows:
            rels.append(NCPoly.monomial(
                ctx.path_from_names([f"v_{a.target}^1", f"{a.name}*"]), 1))
            rels.append(NCPoly.monomial(
                ctx.path_from_names([f"{a.name}*", f"v_{a.source}^{n-1}"]),
                1))
    else:
        # all composable words  c* w a*  with w a plain path (lazy allowed)
        plain_paths = _plain_paths(Q)
        for c in Q.arrows:
            for a in Q.arrows:
                for w in plain_paths:
                    if w.source != c.source:
                        continue
                    wt = Q.arrows[w.arrows[-1]].target if w.arrows \
                        else w.source
                    if wt != a.target:
                        continue
                    names = ([f"{c.name}*"]
                             + [f"{Q.arrows[i].name}^1" for i in w.arrows]
                             + [f"{a.name}*"])
                    rels.append(NCPoly.monomial(ctx.path_from_names(names),
                                                1))
    return GradedQuiverPresentation(lq, rels, name=f"layered(n={n})")


def _plain_paths(Q: Quiver):
    ctx = PathAlgebraContext(Q)
    out = []
    frontier = [Path(v, ()) for v in Q.vertices]
    while frontier:
        out.extend(frontier)
        nxt = []
        for p in frontier:
            t = ctx.target(p)
            for i in Q.arrows_by_source[t]:
                nxt.append(Path(p.source, p.arrows + (i,)))
        frontier = nxt
    return out
