"""Finite dimensional algebras cut out of the graded pieces of a quotient
path algebra.

Given a negatively graded presentation of R and a positive integer a,
`build_A` assembles the lower triangular a x a slice algebra whose (s, t)
entry is the degree s - t piece of R, `build_U` the companion bimodule
shifted one step further down, and `build_B` their trivial extension;
`build_AUB` reads A and U off one RewriteContext of depth a.  Basis
elements are (slot s, slot t, degree, position of a normal word in
the RewriteContext's listing of that degree); every structure constant
is a product of two such words through the context's arrow maps
(`RewriteContext.times`, in `_products`), and a product that would need a
normal word longer than the cap raises CapTooSmall.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotSurjective, PositiveDegree, WindowViolation
from .fdalgebra import FDAlgebra, FDBimodule, trivial_extension
from .linalg import SparseEliminator
from .quiver import GradedQuiverPresentation, NCPoly, Path, Quiver
from .rewriting import RewriteContext, truncated_rewriting


def default_cap(a):
    return 2 * (a + 2)


def _slice_context(pres, depth, cap):
    """RewriteContext for the graded pieces 0..-depth, each checked for
    stability in that order, and their orders (see _by_pair_name)."""
    if not pres.is_negatively_graded():
        bad = [a.name for a in pres.quiver.arrows if a.degree > 0]
        raise PositiveDegree(f"arrows of positive degree: {bad}")
    rc = RewriteContext(pres, cap if cap is not None else default_cap(depth))
    return rc, {-w: _by_pair_name(rc.basis(-w)) for w in range(depth + 1)}


def _by_pair_name(basis):
    """Positions of the context's listing of the basis's degree, each
    vertex pair's words together and the pairs sorted by name."""
    blocks, pos = [], 0
    for pair, words in basis.by_pair.items():
        blocks.append((str(pair), range(pos, pos + len(words))))
        pos += len(words)
    return [i for _, block in sorted(blocks, key=lambda b: b[0])
            for i in block]


def _slice_elements(orders, a, offset):
    """Basis (s, t, degree, position in the listing of the degree) of the
    slots with degree s - t - offset <= 0, each in orders[degree], and
    index: (s, t) -> element number of each position of that listing."""
    elements, index = [], {}
    for s in range(a):
        for t in range(a):
            w = s - t - offset
            if w <= 0:
                slots = index[s, t] = [None] * len(orders[w])
                for i in orders[w]:
                    slots[i] = len(elements)
                    elements.append((s, t, w, i))
    return elements, index


def _slice_labels(rc, elements, sep):
    return [f"({s}{sep}{t}){rc.pres.ctx.format_path(rc.listing(w)[0][i])}"
            for s, t, w, i in elements]


def _products(rc, lefts, rights, index):
    """(i, j) -> lefts[i] * rights[j] over the basis numbered by index, for
    the nonzero products with equal inner slots.  An element is (s, t,
    degree, position in rc.listing(degree)); the product of (s, t, ...)
    and (t, u, ...) lies in slot (s, u), whose index maps each position of
    the product's listing to its element number."""
    out = {}
    for i, (s, t, dp, ip) in enumerate(lefts):
        for j, (t2, u, dq, iq) in enumerate(rights):
            if t == t2:
                vec = rc.times(ip, dp, rc.listing(dq)[0][iq])
                if vec:
                    slots = index[s, u]
                    out[i, j] = {slots[k]: Fraction(c) for k, c in vec.items()}
    return out


def _slice_algebra(pres, a, rc, orders):
    """The slice algebra A read off a context of depth a - 1 or more, and
    its elements."""
    elements, index = _slice_elements(orders, a, 0)
    lazy = [i for i in orders[0] if rc.listing(0)[0][i].is_lazy]
    idems = [index[s, s][i] for s in range(a) for i in lazy]
    return FDAlgebra(_slice_labels(rc, elements, "->"),
                     _products(rc, elements, elements, index), idems,
                     grading=[s - t for s, t, _, _ in elements],
                     name=f"A({pres.name or 'R'},a={a})"), elements


def build_A(pres, a, cap=None) -> FDAlgebra:
    """Lower triangular a x a slice algebra of the presentation."""
    if a < 1:
        raise ValueError("a must be >= 1")
    return _slice_algebra(pres, a, *_slice_context(pres, a - 1, cap))[0]


def build_U(pres, a, cap=None) -> FDBimodule:
    """(A, A)-bimodule whose (s, t) entry is the degree s - t - 1 piece."""
    return build_AUB(pres, a, cap)[1]


def build_B(A: FDAlgebra, U: FDBimodule) -> FDAlgebra:
    """Trivial extension A + U; the U part squares to zero."""
    return trivial_extension(A, U, name=f"B[{A.name or 'A'}]")


def build_AUB(pres, a, cap=None):
    """A, U and B = A + U, with A and U read off one context of depth a
    (so one completion, and one more for its stability probe)."""
    if a < 1:
        raise ValueError("a must be >= 1")
    rc, orders = _slice_context(pres, a, cap)
    A, a_elements = _slice_algebra(pres, a, rc, orders)
    u_elements, u_index = _slice_elements(orders, a, 1)
    U = FDBimodule(A, _slice_labels(rc, u_elements, "=>"),
                   _products(rc, a_elements, u_elements, u_index),
                   _products(rc, u_elements, a_elements, u_index),
                   name=f"U({pres.name or 'R'},a={a})")
    return A, U, build_B(A, U)


def multiply_grading(pres, n):
    """All arrow degrees (and the declared a-invariant) scaled by n."""
    return pres.scale_degrees(n)


def build_tilde(A: FDAlgebra, U: FDBimodule, n):
    """n-fold block construction: A~ = n copies of A on the diagonal, U~
    the cyclic bimodule with A blocks above the diagonal and U in the
    lower-left corner, B~ their trivial extension.  n = 1 returns
    (A, U, B) itself (same bases)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return A, U, build_B(A, U)
    d = A.dim

    def shifted(vec, by):
        return {by + t: c for t, c in vec.items()}

    mult = {(k * d + i, k * d + j): shifted(v, k * d)
            for k in range(n) for (i, j), v in A.mult.items()}
    At = FDAlgebra([f"[{k}]{l}" for k in range(n) for l in A.labels], mult,
                   [k * d + e for k in range(n) for e in A.idempotents],
                   name=f"tilde_A({A.name or 'A'},n={n})")

    # U~ basis: blocks (k+1 -> k) carrying A's basis for k < n-1, element
    # k * d + i, and a block (0 -> n-1) carrying U's basis from (n-1) * d
    # on (matching the construction for the grading multiplied by n).
    # A~'s block k + 1 acts on the left of block k and block k on its
    # right; U's left action comes from block 0, its right from n - 1.
    corner = (n - 1) * d
    u_labels = [f"[{k+1}>{k}]{l}" for k in range(n - 1) for l in A.labels] \
        + [f"[0>{n-1}]{l}" for l in U.labels]
    left, right = {}, {}
    for (i, j), v in A.mult.items():
        for k in range(n - 1):
            left[(k + 1) * d + i, k * d + j] = shifted(v, k * d)
            right[k * d + i, k * d + j] = shifted(v, k * d)
    for (i, u), v in U.left.items():
        left[i, corner + u] = shifted(v, corner)
    for (u, i), v in U.right.items():
        right[corner + u, corner + i] = shifted(v, corner)
    Ut = FDBimodule(At, u_labels, left, right,
                    name=f"tilde_U({U.name or 'U'},n={n})")
    return At, Ut, trivial_extension(At, Ut, name=f"tilde_B(n={n})")


def cluster_hom_shadow(pres, m, cap=None):
    """dim of the degree-m piece of R, valid for -(d+a)+1 <= m <= 0.

    Outside that window the graded piece no longer computes the shifted
    endomorphism dimensions, so the query is refused.
    """
    if pres.cy is None:
        raise ValueError("presentation lacks declared CY data")
    if not pres.is_negatively_graded():
        raise PositiveDegree("negatively graded presentation required")
    d = pres.cy.dimension - 1
    a = pres.cy.a_invariant
    lo = -(d + a) + 1
    if not (lo <= m <= 0):
        raise WindowViolation(
            f"index {m} outside the valid window [{lo}, 0]")
    if cap is None:
        cap = default_cap(-m + 1)
    rc = RewriteContext(pres, cap)
    return sum(rc.counts(m).values())


# ---------------------------------------------------------------------------
# reconstructing relations from structure constants
# ---------------------------------------------------------------------------

def relations_from_structure(alg: FDAlgebra, guess: Quiver, arrow_images,
                             cap, vertex_idempotents=None):
    """Minimal homogeneous generators of the kernel of kQ -> alg up to
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

    # every word tried gets a tag coordinate alg.dim + n next to its
    # image, so a word whose image reduces to 0 leaves its dependence on
    # the independent words in the tags; only independent rows are kept
    elim = SparseEliminator()
    tried = []
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

    def dependence(path):
        """None after keeping path's row, if its image is new; else the
        relation path - (its combination of kept words), path first."""
        red = elim.reduce({**image(path), alg.dim + len(tried): 1})
        tried.append(path)
        if min(red) < alg.dim:
            elim.add(red)
            return None
        return NCPoly({path: 1, **{tried[m - alg.dim]: c
                                   for m, c in sorted(red.items())}})

    frontier = [Path(v, ()) for v in guess.vertices]
    for p in frontier:
        dependence(p)

    for length in range(1, cap + 1):
        new_frontier = []
        for p in frontier:
            tgt = ctx.target(p)
            for i in guess.arrows_by_source[tgt]:
                q = Path(p.source, p.arrows + (i,))
                if reducible(q.arrows):
                    continue
                rel = dependence(q)
                if rel is None:
                    new_frontier.append(q)
                else:
                    found.append(rel)
                    lead_words.append(q.arrows)
        frontier = new_frontier
        if not frontier:
            break

    if elim.rank != alg.dim:
        raise NotSurjective(
            f"arrow images span {elim.rank} of {alg.dim} dimensions "
            f"within length {cap}")
    return found


def reduce_mod(relations, other_pres_relations, guess, cap):
    """Reduce each NCPoly in `relations` modulo the ideal generated by
    `other_pres_relations` over the quiver `guess`; returns the reductions."""
    pres = GradedQuiverPresentation(guess, list(other_pres_relations))
    rs = truncated_rewriting(pres, cap)
    return [rs.reduce(r) for r in relations]
